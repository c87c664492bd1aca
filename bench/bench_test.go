package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the command must agree with.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at about 1% of its working set for a
// fraction of a second, untraced and traced, and checks that each
// emits exactly the metrics BENCHMARK.json declares, with their units,
// that no operation fails, and that the trace file is JSON.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	var declared []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(declared, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, declared)
	}
	dir := t.TempDir()
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rep, err := execute(config{
				workload: name, seed: 1, window: 100 * time.Millisecond, trace: trace,
				workdir: dir, scale: 0.01, setupRuns: 1,
			})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			r := rep.Result
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%t: attempted %d, failed %d: %v", name, trace, r.Attempted, r.Failed, rep.Errors)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", name, trace, len(r.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", name, trace, d.Name, m, d.Unit)
				}
			}
			if trace {
				b, err := os.ReadFile(rep.TraceFile)
				if err != nil || !json.Valid(b) {
					t.Errorf("%s: trace file %s is not JSON: %v", name, rep.TraceFile, err)
				}
			}
		}
	}
}

// TestCommandOutput runs the command as the harness does and checks
// that its last line is the result object with exactly its four keys.
func TestCommandOutput(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"--workload", "cold_cells", "--seed", "2", "--seconds", "0.1", "--trace", "0", "--workdir", t.TempDir()}, &out)
	if code != 0 || err != nil {
		t.Fatalf("exit %d: %v", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %s", got)
	}
	if code, _ := run([]string{"--workload", "nope", "--workdir", t.TempDir()}, &out); code == 0 {
		t.Fatal("an unknown workload exited 0")
	}
}

// TestWorkloadDigest checks that a seed always generates the same
// stream and another seed a different one.
func TestWorkloadDigest(t *testing.T) {
	for _, name := range workloadNames() {
		digest := func(seed int64) string {
			return workloads[name](&env{config: config{seed: seed, scale: 1}}).digest()
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("%s: seed 1 gave %s then %s", name, a, b)
		}
		if a, b := digest(1), digest(7); a == b {
			t.Errorf("%s: seeds 1 and 7 both gave %s", name, a)
		}
	}
}

// TestSeedRanges checks that the request seeds of different workloads
// and benchmark seeds never collide, and that none is 0, which a server
// reads as seed 1.
func TestSeedRanges(t *testing.T) {
	seen := map[int64]string{}
	for w := wCold; w <= wWarm; w++ {
		for _, seed := range []int64{0, 1, 2, -1} {
			for _, j := range []int{0, 1, maxStreamCells - 1} {
				s := cellSeed(w, seed, j)
				id := fmt.Sprintf("workload %d seed %d cell %d", w, seed, j)
				if s <= 0 {
					t.Fatalf("%s: request seed %d, want positive", id, s)
				}
				if prev, ok := seen[s]; ok {
					t.Fatalf("%s and %s share request seed %d", prev, id, s)
				}
				seen[s] = id
			}
		}
	}
}
