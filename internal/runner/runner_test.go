package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"busaware/internal/machine"
	"busaware/internal/sim"
	"busaware/internal/units"
	"busaware/internal/workload"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-1) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestRunEmpty(t *testing.T) {
	results, rep, err := Run(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 || len(rep.Cells) != 0 {
		t.Errorf("empty batch produced %d results, %d cell stats", len(results), len(rep.Cells))
	}
}

// TestRunBoundsWorkers checks the pool never runs more cells at once
// than the worker bound, while still achieving real concurrency.
func TestRunBoundsWorkers(t *testing.T) {
	const workers, n = 3, 12
	var cur, peak atomic.Int64
	// Rendezvous: the first `workers` cells wait for each other, so the
	// test proves the pool actually runs cells concurrently rather than
	// merely not exceeding the bound.
	var ready sync.WaitGroup
	ready.Add(workers)
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Label: fmt.Sprintf("stub%d", i),
			Run: func() (sim.Result, error) {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				if i < workers {
					ready.Done()
					ready.Wait()
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
				return sim.Result{Quanta: i}, nil
			},
		}
	}
	results, rep, err := Run(workers, cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("observed %d concurrent cells, bound is %d", got, workers)
	}
	if got := peak.Load(); got < workers {
		t.Errorf("observed only %d concurrent cells, want the full pool of %d", got, workers)
	}
	if rep.PeakOccupancy > workers || rep.PeakOccupancy < 1 {
		t.Errorf("report peak occupancy = %d", rep.PeakOccupancy)
	}
	if rep.Workers != workers {
		t.Errorf("report workers = %d", rep.Workers)
	}
	// Submission-order aggregation regardless of completion order.
	for i, res := range results {
		if res.Quanta != i {
			t.Errorf("result %d carries Quanta %d, want %d (submission order violated)", i, res.Quanta, i)
		}
	}
}

// TestRunSubmissionOrder makes later-submitted cells finish first and
// checks aggregation still follows submission order.
func TestRunSubmissionOrder(t *testing.T) {
	const n = 6
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Label: fmt.Sprintf("stub%d", i),
			Run: func() (sim.Result, error) {
				// Earlier cells sleep longer, inverting completion order.
				time.Sleep(time.Duration(n-i) * 2 * time.Millisecond)
				return sim.Result{Quanta: i, EndTime: units.Time(i)}, nil
			},
		}
	}
	results, rep, err := Run(n, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Quanta != i {
			t.Errorf("result %d = %d, want submission order", i, res.Quanta)
		}
		if rep.Cells[i].Label != fmt.Sprintf("stub%d", i) {
			t.Errorf("report cell %d = %s", i, rep.Cells[i].Label)
		}
	}
}

func TestRunErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	cells := []Cell{
		{Label: "ok0", Run: func() (sim.Result, error) { return sim.Result{Quanta: 10}, nil }},
		{Label: "bad1", Run: func() (sim.Result, error) { return sim.Result{}, boom }},
		{Label: "ok2", Run: func() (sim.Result, error) { return sim.Result{Quanta: 30}, nil }},
		{Label: "bad3", Run: func() (sim.Result, error) { return sim.Result{}, boom }},
	}
	results, rep, err := Run(2, cells)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error %v does not wrap the cell failure", err)
	}
	if !strings.Contains(err.Error(), "bad1") {
		t.Errorf("error %q should name the first failing cell in submission order", err)
	}
	if rep.Failed() != 2 {
		t.Errorf("failed = %d, want 2", rep.Failed())
	}
	// Healthy cells still ran and reported.
	if results[0].Quanta != 10 || results[2].Quanta != 30 {
		t.Errorf("healthy results lost: %+v", results)
	}
	if rep.Cells[1].Err == nil || rep.Cells[3].Err == nil {
		t.Error("per-cell errors not preserved in report")
	}
}

// simCells builds a small real workload grid: a Linux baseline, both
// paper policies and a gang run over CG + antagonists.
func simCells() []Cell {
	cg, _ := workload.ByName("CG")
	mix := workload.Mix{{Profile: cg, Count: 1}, {Profile: workload.BBMA(), Count: 1}, {Profile: workload.NBBMA(), Count: 1}}
	cell := func(policy string) Cell {
		return Cell{Label: policy, Apps: mix, Policy: policy, Seed: 1}
	}
	return []Cell{cell("linux"), cell("latest"), cell("window"), cell("gang")}
}

// TestCellRunsFresh runs one Cell value twice: each run builds its own
// instances and scheduler, so the second sees no state the first left
// behind.
func TestCellRunsFresh(t *testing.T) {
	for _, c := range simCells() {
		first, err := c.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		second, err := c.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: second run of one cell differs from the first", c.Label)
		}
		if first.TimedOut || len(first.Apps) != 1 {
			t.Errorf("%s: run did not complete: %+v", c.Label, first)
		}
	}
}

// TestCellOptionsReachBothCores runs a window cell with a non-default
// window under the shadow engine. The parameter changes the result,
// and the two cores still agree, so it reached the scheduler each core
// built.
func TestCellOptionsReachBothCores(t *testing.T) {
	rt, _ := workload.ByName("Raytrace")
	mix := workload.Mix{{Profile: rt, Count: 2}, {Profile: workload.NBBMA(), Count: 4}}
	plain := Cell{Label: "W5", Config: sim.Config{Engine: sim.EngineShadow}, Apps: mix, Policy: "window"}
	wide := plain
	wide.Label, wide.Params.Window = "W8", 8
	a, err := plain.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := wide.Simulate()
	if err != nil {
		t.Fatalf("shadow run with an option: %v", err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("Params.Window 8 left the result unchanged; the parameter did not reach the scheduler")
	}
}

// TestCellZeroMachineIsPaperMachine checks that a zero Config.Machine
// builds the scheduler, not only the machine, for the paper machine.
func TestCellZeroMachineIsPaperMachine(t *testing.T) {
	for _, c := range simCells() {
		zero, err := c.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		c.Config.Machine = machine.DefaultConfig()
		paper, err := c.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(zero, paper) {
			t.Errorf("%s: zero machine and paper machine differ", c.Label)
		}
		c.Config.Machine.NumCPUs = 2
		if two, err := c.Simulate(); err != nil || reflect.DeepEqual(zero, two) {
			t.Errorf("%s: a 2-CPU machine ran like the paper machine (err %v)", c.Label, err)
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts is the core guarantee: the
// parallel results are byte-for-byte the serial results.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, serialRep, err := Run(1, simCells())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		parallel, rep, err := Run(w, simCells())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("results differ between 1 and %d workers", w)
		}
		if rep.TotalQuanta() != serialRep.TotalQuanta() {
			t.Errorf("simulated quanta differ: %d vs %d", rep.TotalQuanta(), serialRep.TotalQuanta())
		}
	}
}

func TestReportAggregates(t *testing.T) {
	cells := []Cell{
		{Label: "a", Run: func() (sim.Result, error) {
			return sim.Result{Quanta: 10, EndTime: 100, MeanBusUtilization: 0.5}, nil
		}},
		{Label: "b", Run: func() (sim.Result, error) {
			return sim.Result{Quanta: 30, EndTime: 300, MeanBusUtilization: 0.9}, nil
		}},
	}
	_, rep, err := Run(1, cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.TotalQuanta(); got != 40 {
		t.Errorf("total quanta = %d", got)
	}
	if got := rep.TotalSimTime(); got != 400 {
		t.Errorf("total sim time = %v", got)
	}
	// Quanta-weighted utilization: (10*0.5 + 30*0.9) / 40 = 0.8.
	if got := rep.MeanBusUtilization(); got < 0.799 || got > 0.801 {
		t.Errorf("weighted utilization = %v, want 0.8", got)
	}
	if rep.CellWall() <= 0 || rep.Wall <= 0 {
		t.Errorf("wall times not recorded: %+v", rep)
	}
	if rep.Failed() != 0 || rep.FirstErr() != nil {
		t.Errorf("spurious failure: %+v", rep)
	}
}

func TestMetricsTotals(t *testing.T) {
	m := NewMetrics()
	mk := func(quanta int, util float64, fail bool) []Cell {
		return []Cell{{Label: "c", Run: func() (sim.Result, error) {
			res := sim.Result{Quanta: quanta, EndTime: units.Time(quanta) * 10, MeanBusUtilization: util}
			if fail {
				return res, errors.New("boom")
			}
			return res, nil
		}}}
	}
	_, r1, err := Run(1, mk(10, 0.5, false))
	if err != nil {
		t.Fatal(err)
	}
	m.Observe("one", r1)
	_, r2, err := Run(2, mk(30, 0.9, false))
	if err != nil {
		t.Fatal(err)
	}
	m.Observe("two", r2)
	_, r3, _ := Run(1, mk(0, 0, true))
	m.Observe("three", r3)

	batches := m.Batches()
	if len(batches) != 3 || batches[0].Name != "one" || batches[2].Name != "three" {
		t.Fatalf("batches = %+v", batches)
	}
	tot := m.Total()
	if tot.Batches != 3 || tot.Cells != 3 || tot.Failed != 1 {
		t.Errorf("counts: %+v", tot)
	}
	if tot.Quanta != 40 {
		t.Errorf("quanta = %d", tot.Quanta)
	}
	if tot.SimTime != 400 {
		t.Errorf("sim time = %v", tot.SimTime)
	}
	if tot.BusUtilization < 0.799 || tot.BusUtilization > 0.801 {
		t.Errorf("weighted utilization = %v, want 0.8", tot.BusUtilization)
	}
	if tot.Wall < r1.Wall+r2.Wall {
		t.Errorf("total wall %v below sum of batch walls", tot.Wall)
	}
	if tot.CellWall != r1.CellWall()+r2.CellWall()+r3.CellWall() {
		t.Errorf("cell wall %v does not add up", tot.CellWall)
	}
	if tot.Speedup() <= 0 {
		t.Errorf("speedup = %v", tot.Speedup())
	}
}
