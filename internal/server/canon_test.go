package server

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"busaware/internal/faults"
	"busaware/internal/scenario"
	"busaware/internal/sched"
	"busaware/internal/workload"
)

// keyGridSpecs are the workload specs of keyGrid: spellings that must
// canonicalize alike, every registered profile, and malformed specs
// whose errors must not change.
var keyGridSpecs = []string{
	"CG", "CG x2", "CG, CG", "CG,CG", "CG x2, BBMA x4", "CG, CG, BBMA x4",
	"CG,CG,BBMA,BBMA,BBMA,BBMA", "CG, nBBMA, CG", "CG, CG x2", "CG x1, CG x1",
	"Raytrace", "  Raytrace x2 ,  nBBMA x4  ", "CG,,BBMA,", "BT x2, BBMA",
	"Volrend, Radiosity, Barnes", "LU CB", "LU CB x2, LU CB", "Water-nsqr, FMM",
	"SP, MG x3", "WebServer x2, Database", "STREAM", "BBMA x8",
	"nBBMA x3, BBMA x3", "CG x8, CG", "CG, BBMA, nBBMA", "CG x 2", "CG  x2",
	"CG x02", "CG x+2", "Raytrace, Raytrace, CG, Raytrace",
	"", " , , ", "NoSuchApp", "CG x0", "CG x-1", "CG xtwo", "CG x", "cg",
	"CG x2x", "x2", "CG, Quux", "Quux, CG x0", "CG x2 x3", "CG;BBMA",
}

// keyGrid is the request grid TestCanonicalKeyGolden pins and
// FuzzCanonicalKey seeds from. It has four parts: every policy name
// plus an unknown one over keyGridSpecs and four CPU counts, with the
// seed cycled through the part; every combination of one valid and
// one invalid value per field, which pins the validation order; the
// max-time, fault and output variants of two cells; and churn
// scenarios over presets, pools, seeds and ticks.
func keyGrid() []Request {
	var reqs []Request
	seeds := []int64{0, 1, 7, -3, 42}
	for _, policy := range append([]string{"", "bogus"}, sched.Policies()...) {
		for _, spec := range keyGridSpecs {
			for _, cpus := range []int{0, 2, 8, -1} {
				seed := seeds[len(reqs)%len(seeds)]
				reqs = append(reqs, Request{Apps: spec, Policy: policy, Seed: seed, CPUs: cpus})
			}
		}
	}

	badFaults := &faults.Config{SampleLoss: 1.5}
	badScenario := &scenario.ChurnSpec{Pattern: "bogus:1s"}
	for _, spec := range []string{"CG", "Quux"} {
		for _, cpus := range []int{0, -1} {
			for _, maxt := range []int64{0, -1} {
				for _, f := range []*faults.Config{nil, badFaults} {
					for _, scn := range []*scenario.ChurnSpec{nil, badScenario} {
						for _, policy := range []string{"window", "bogus"} {
							reqs = append(reqs, Request{Apps: spec, Policy: policy, CPUs: cpus,
								MaxTimeUsec: maxt, Faults: f, Scenario: scn})
						}
					}
				}
			}
		}
	}

	for _, policy := range []string{"linux", "window"} {
		for _, maxt := range []int64{0, 1, 5000000} {
			for _, f := range []*faults.Config{
				nil,
				{},
				{Seed: 3, SampleLoss: 0.1},
				{SignalDelay: 0.5, CrashProb: 0.01, RequestLoss: 1},
				{CounterNoise: -0.1},
			} {
				for _, out := range []struct{ trace, timeline bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
					reqs = append(reqs, Request{Apps: "CG x2, BBMA", Policy: policy, MaxTimeUsec: maxt,
						Faults: f, Trace: out.trace, Timeline: out.timeline})
				}
			}
		}
	}

	patterns := append(scenario.Presets(),
		"step:10s@4; spike:10s@4..60; step:20s@4", "ramp:5s@0..3", "", "bogus:1s")
	for _, pattern := range patterns {
		for _, pool := range []string{"", "CG, CG", "CG x2", "Volrend, CG, BBMA", "Quux", "CG x0"} {
			for _, seed := range []int64{0, 3} {
				for _, tick := range []int64{0, 500000, -1} {
					reqs = append(reqs, Request{Apps: "BT", Scenario: &scenario.ChurnSpec{
						Pattern: pattern, Pool: pool, Seed: seed, TickUsec: tick}})
				}
			}
		}
	}
	return reqs
}

// keyLine is one golden line: the request's canonical key, or the
// exact error it is refused with.
func keyLine(req Request) string {
	key, err := CanonicalKey(req)
	if err != nil {
		return err.Error()
	}
	return key
}

// TestCanonicalKeyGolden pins the identity of every keyGrid request:
// its key, or the exact text of its 400. The gateway routes and every
// tier caches on these strings, so no refactor may change one.
func TestCanonicalKeyGolden(t *testing.T) {
	grid := keyGrid()
	lines := make([]string, len(grid))
	for i, req := range grid {
		lines[i] = keyLine(req)
	}
	const path = "testdata/canonical_keys.golden"
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, the grid %d", path, len(want), len(lines))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] && bad < 10 {
			bad++
			t.Errorf("request %d %+v:\n got %s\nwant %s", i, grid[i], lines[i], want[i])
		}
	}
}

// TestCanonicalKeyBounds: each input bound is enforced when the key is
// built, so both daemons refuse over-bound cells with a 400 before
// admission.
func TestCanonicalKeyBounds(t *testing.T) {
	for _, tc := range []struct {
		req  Request
		want string
	}{
		{Request{Apps: "CG", CPUs: 100000}, "server: cpus = 100000 exceeds 1024"},
		{Request{Apps: "CG x2000"}, "workload: spec exceeds 1024 instances"},
		{Request{Apps: "CG", Scenario: &scenario.ChurnSpec{Pattern: "step:2s@1", TickUsec: 1}},
			"scenario: schedule exceeds 1048576 ticks (pattern too long or tick too fine)"},
		{Request{Apps: "CG", Scenario: &scenario.ChurnSpec{Pattern: "step:1s@1", Pool: "CG x2000"}},
			"scenario: pool: workload: spec exceeds 1024 instances"},
	} {
		if _, err := CanonicalKey(tc.req); err == nil || err.Error() != tc.want {
			t.Errorf("%+v: err = %v, want %q", tc.req, err, tc.want)
		}
	}
	if _, err := CanonicalKey(Request{Apps: "CG", CPUs: 1024}); err != nil {
		t.Errorf("cpus = 1024: %v", err)
	}
}

// TestCanonicalKeyBuildsNothing: keying a request costs the same
// however many instances its spec names, because canon parses the spec
// without instantiating it.
func TestCanonicalKeyBuildsNothing(t *testing.T) {
	// Under -race, sync.Pool drops puts at random, so fmt's printer
	// cache misses by chance; a long average floors to a stable count.
	allocs := func(apps string) float64 {
		req := Request{Apps: apps, Policy: "linux"}
		return testing.AllocsPerRun(1000, func() {
			if _, err := CanonicalKey(req); err != nil {
				t.Fatal(err)
			}
		})
	}
	if two, thousand := allocs("CG x2"), allocs("CG x1000"); two != thousand {
		t.Errorf("CanonicalKey allocs: %v for CG x2, %v for CG x1000", two, thousand)
	}
}

// figureCells are the paper's Figure 1 and Figure 2 cells as requests:
// each application solo, twice, and with two BBMA or two nBBMA under
// gang scheduling; and in pairs beside each antagonist set under the
// Linux baseline's seeds and both paper policies.
func figureCells() []Request {
	var reqs []Request
	for _, p := range workload.PaperApps() {
		for _, apps := range []string{p.Name, p.Name + " x2", p.Name + ", BBMA x2", p.Name + ", nBBMA x2"} {
			reqs = append(reqs, Request{Apps: apps, Policy: "gang"})
		}
		for _, set := range []string{"BBMA x4", "nBBMA x4", "BBMA x2, nBBMA x2"} {
			apps := p.Name + " x2, " + set
			for seed := int64(1); seed <= 3; seed++ {
				reqs = append(reqs, Request{Apps: apps, Policy: "linux", Seed: seed})
			}
			reqs = append(reqs, Request{Apps: apps, Policy: "latest"}, Request{Apps: apps, Policy: "window"})
		}
	}
	return reqs
}

// normalized is a cell's identity spelled out field by field, so cells
// can be compared without their keys. A disabled fault config runs as
// no faults at all, whatever its seed.
type normalized struct {
	apps     workload.Mix
	policy   string
	seed     int64
	cpus     int
	maxTime  int64
	faults   faults.Config
	scenario scenario.ChurnSpec
	trace    bool
	timeline bool
}

func normalize(c *cell) normalized {
	cfg := c.run.Config
	n := normalized{apps: c.run.Apps, policy: c.run.Policy, seed: c.run.Seed, cpus: cfg.Machine.NumCPUs,
		maxTime: int64(cfg.MaxTime), trace: c.trace, timeline: c.timeline}
	if cfg.Faults.Enabled() {
		n.faults = cfg.Faults
	}
	if cfg.Scenario != nil {
		n.scenario = cfg.Scenario.Spec
	}
	return n
}

// respell is the request written out from n: canonical apps, every
// default explicit, and the canonical scenario spec.
func (n normalized) respell() Request {
	req := Request{Apps: n.apps.String(), Policy: n.policy, Seed: n.seed, CPUs: n.cpus,
		MaxTimeUsec: n.maxTime, Faults: &n.faults, Trace: n.trace, Timeline: n.timeline}
	if n.scenario != (scenario.ChurnSpec{}) {
		req.Scenario = &n.scenario
	}
	return req
}

// FuzzCanonicalKey checks canon on two requests decoded from one input.
// For each request canon accepts, the key is idempotent (the request
// respelled from its normalized fields keys the same), agrees across
// encodings (the cell inside a /v1/sweep body keys the same), and
// matches the build (the built cell has exactly the instances
// workload.ParseSpec makes, and its scheduler builds). Across the two,
// equal keys imply equal normalized cells.
func FuzzCanonicalKey(f *testing.F) {
	var seeds [][]byte
	reqs := append(keyGrid(), figureCells()...)
	for _, preset := range scenario.Presets() {
		reqs = append(reqs, Request{Apps: smallSpec, Scenario: &scenario.ChurnSpec{Pattern: preset}})
	}
	for _, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for i := range seeds {
		f.Add(seeds[i], seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var keys [2]string
		var cells [2]normalized
		for i, body := range [][]byte{a, b} {
			req, err := DecodeRequest(bytes.NewReader(body))
			if err != nil {
				return
			}
			c, err := canon(req)
			if err != nil {
				return
			}
			keys[i], cells[i] = c.Key, normalize(c)
			checkCell(t, req, c)
		}
		if keys[0] == keys[1] && !reflect.DeepEqual(cells[0], cells[1]) {
			t.Fatalf("distinct cells share key %s:\n%+v\n%+v", keys[0], cells[0], cells[1])
		}
	})
}

// checkCell checks one accepted request's key against its respelling,
// its sweep encoding and its build.
func checkCell(t *testing.T, req Request, c *cell) {
	t.Helper()
	if key, err := CanonicalKey(normalize(c).respell()); err != nil || key != c.Key {
		t.Fatalf("respelled %+v: key %q, err %v; want %q", normalize(c).respell(), key, err, c.Key)
	}
	body, err := json.Marshal(SweepRequest{Cells: []Request{req}})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := DecodeSweep(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("sweep of %s: %v", body, err)
	}
	if key, err := CanonicalKey(sweep.Cells[0]); err != nil || key != c.Key {
		t.Fatalf("sweep cell %s: key %q, err %v; want %q", body, key, err, c.Key)
	}
	want, err := workload.ParseSpec(req.Apps)
	if err != nil {
		t.Fatalf("canon accepted %q, ParseSpec refuses it: %v", req.Apps, err)
	}
	built := c.run.Apps.Build()
	if len(built) != len(want) {
		t.Fatalf("%q: built %d instances, ParseSpec %d", req.Apps, len(built), len(want))
	}
	for i, a := range built {
		if a.Instance != want[i].Instance || !reflect.DeepEqual(a.Profile, want[i].Profile) {
			t.Fatalf("%q: instance %d is %s, ParseSpec's %s", req.Apps, i, a.Instance, want[i].Instance)
		}
	}
	if _, err := sched.New(c.run.Policy, c.run.Config.Machine, c.run.Seed, c.run.Params); err != nil {
		t.Fatalf("key %s: scheduler does not build: %v", c.Key, err)
	}
}
