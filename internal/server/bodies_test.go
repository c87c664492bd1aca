package server

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"busaware/internal/digest"
	"busaware/internal/faults"
	"busaware/internal/machine"
	"busaware/internal/runner"
	"busaware/internal/scenario"
	"busaware/internal/sched"
	"busaware/internal/sim"
	"busaware/internal/timeline"
	"busaware/internal/trace"
	"busaware/internal/workload"
)

// bodyGridMixes are the workloads of the body grid: a bandwidth-heavy
// application among antagonists, a bursty one among idle companions, a
// migration-sensitive one among both, and the server profiles.
var bodyGridMixes = []string{
	"CG x2, BBMA x4",
	"Raytrace x2, nBBMA x4",
	"LU CB x2, BBMA x2, nBBMA x2",
	"Water-nsqr x2, WebServer, Database",
}

// bodyGridFaults is a fault config that drops samples, counter polls
// and signals and crashes the manager, but adds no counter noise.
var bodyGridFaults = faults.Config{Seed: 7, SampleLoss: 0.2, CounterLoss: 0.1, SignalLoss: 0.05, CrashProb: 0.02}

// bodyCell is one run of the body grid.
type bodyCell struct {
	label string
	cell  runner.Cell
}

// bodyGrid returns every mix × policy × {no churn, flashcrowd} ×
// {quantum, event} on the paper machine, then one run per policy of
// the first mix under bodyGridFaults.
func bodyGrid(t *testing.T) []bodyCell {
	t.Helper()
	var cells []bodyCell
	add := func(label, mix, policy string, cfg sim.Config) {
		apps, err := workload.ParseMix(mix)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Machine = machine.DefaultConfig()
		cells = append(cells, bodyCell{label, runner.Cell{Apps: apps, Policy: policy, Seed: 1, Config: cfg}})
	}
	for _, mix := range bodyGridMixes {
		for _, policy := range sched.Policies() {
			for _, churn := range []string{"", "flashcrowd"} {
				for _, engine := range []sim.EngineKind{sim.EngineQuantum, sim.EngineEvent} {
					cfg := sim.Config{Engine: engine}
					if churn != "" {
						s, err := scenario.Materialize(scenario.ChurnSpec{Pattern: churn})
						if err != nil {
							t.Fatal(err)
						}
						cfg.Scenario = s
					}
					add(fmt.Sprintf("%s|%s|%s|%s", mix, policy, churn, engine), mix, policy, cfg)
				}
			}
		}
	}
	for _, policy := range sched.Policies() {
		add(fmt.Sprintf("%s|%s|faults|%s", bodyGridMixes[0], policy, sim.EngineQuantum),
			bodyGridMixes[0], policy, sim.Config{Faults: bodyGridFaults})
	}
	return cells
}

// renderGridBody runs c with a Chrome trace and a timeline collector
// and renders the /v1/simulate body with both embedded.
func renderGridBody(c runner.Cell) ([]byte, error) {
	tl := &trace.Timeline{NumCPUs: c.Config.Machine.NumCPUs}
	col := timeline.MustNew(timeline.Config{QuantaPerWindow: timeline.DefaultQuantaPerWindow, Capacity: 256})
	c.Config.Trace, c.Config.Timeline = tl, col
	res, err := c.Simulate()
	if err != nil {
		return nil, err
	}
	resp, err := NewResponse(res, tl, col)
	if err != nil {
		return nil, err
	}
	return resp.MarshalBody()
}

// TestResponseBodiesGolden pins the digest of every body-grid run's
// response body, trace and timeline windows included. A change meant
// to keep every output byte must leave testdata/bodies.golden as it is.
func TestResponseBodiesGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range bodyGrid(t) {
		body, err := renderGridBody(c.cell)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		fmt.Fprintf(&b, "%s %s\n", digest.Sum(body), c.label)
	}
	const path = "testdata/bodies.golden"
	got := b.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, the grid %d", path, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell %d:\n got %s\nwant %s", i, gotLines[i], wantLines[i])
		}
	}
}
