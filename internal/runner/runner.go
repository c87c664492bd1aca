// Package runner fans independent simulation runs out across a
// bounded worker pool while keeping results byte-for-byte
// deterministic. The paper's evaluation is a large grid of independent
// cells (every figure bar is its own sim.Run), so the sweep
// parallelizes trivially. A cell is a value — a workload mix, a policy
// name, a seed, policy parameters and a sim.Config — and builds its
// applications and its scheduler only when it runs, so nothing mutable
// is shared between cells or between two runs of one cell, and
// aggregation always happens in submission order, never completion
// order.
//
// The runner also attaches run-level observability to every batch: a
// Report records per-cell wall time, simulated quanta, bus-utilization
// summaries and worker occupancy, and a Metrics accumulator merges the
// Reports of a whole figure sweep for cmd/figures to print and tests
// to assert on.
package runner

import (
	"runtime"
	"time"

	"busaware/internal/machine"
	"busaware/internal/sched"
	"busaware/internal/sim"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Cell is one independent simulation run, described as plain data:
// Simulate builds fresh application instances and a fresh scheduler on
// every call, so one Cell value may run any number of times, on any
// worker, with identical results.
type Cell struct {
	// Label identifies the cell in metrics and error messages, e.g.
	// "fig2/LQ/CG/2Apps+4BBMA".
	Label string
	// Config is the cell's simulation configuration. A zero Machine is
	// the paper machine, for the scheduler as for sim.Run.
	Config sim.Config
	// Apps is the cell's workload, instantiated afresh by every run.
	Apps workload.Mix
	// Policy, Seed and Params name the cell's scheduler through the one
	// policy table, sched.New, for Config.Machine. All three are plain
	// values, so Run is the only code a cell carries.
	Policy string
	Seed   int64
	Params sched.Params
	// Run, when non-nil, replaces Simulate — used by tests and by
	// callers with non-simulation work to fan out.
	Run func() (sim.Result, error)
}

func (c Cell) run() (sim.Result, error) {
	if c.Run != nil {
		return c.Run()
	}
	return c.Simulate()
}

// Simulate runs a fresh instance of Apps under a fresh scheduler. The
// same constructor is sim.Config.SchedulerFactory, so the shadow
// engine's second core runs an independent but identical scheduler.
func (c Cell) Simulate() (sim.Result, error) {
	if c.Config.Machine.NumCPUs == 0 {
		c.Config.Machine = machine.DefaultConfig()
	}
	c.Config.SchedulerFactory = c.scheduler
	s, err := c.scheduler()
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(c.Config, s, c.Apps.Build())
}

// scheduler builds the cell's scheduler for Config.Machine.
func (c Cell) scheduler() (sched.Scheduler, error) {
	return sched.New(c.Policy, c.Config.Machine, c.Seed, c.Params)
}

// CellStat is the run-level record of one executed cell.
type CellStat struct {
	Label string
	// Wall is the host wall-clock time the cell took.
	Wall time.Duration
	// Quanta is the number of scheduler quanta the cell simulated.
	Quanta int
	// SimTime is the cell's simulated end time.
	SimTime units.Time
	// BusUtilization is the cell's mean bus utilization over quanta.
	BusUtilization float64
	// Err is the cell's failure, if any.
	Err error
}

// Report is the run-level observability of one batch of cells.
type Report struct {
	// Workers is the pool bound the batch ran under.
	Workers int
	// PeakOccupancy is the maximum number of workers observed busy at
	// the same time.
	PeakOccupancy int
	// Wall is the batch's host wall-clock time.
	Wall time.Duration
	// Cells holds per-cell stats, in submission order.
	Cells []CellStat
}

// CellWall sums the per-cell wall times — the serial-equivalent cost
// of the batch.
func (r Report) CellWall() time.Duration {
	var sum time.Duration
	for _, c := range r.Cells {
		sum += c.Wall
	}
	return sum
}

// TotalQuanta sums the simulated quanta across cells.
func (r Report) TotalQuanta() int {
	var sum int
	for _, c := range r.Cells {
		sum += c.Quanta
	}
	return sum
}

// TotalSimTime sums the simulated time across cells.
func (r Report) TotalSimTime() units.Time {
	var sum units.Time
	for _, c := range r.Cells {
		sum += c.SimTime
	}
	return sum
}

// MeanBusUtilization is the quanta-weighted mean bus utilization over
// the batch.
func (r Report) MeanBusUtilization() float64 {
	var quanta float64
	var weighted float64
	for _, c := range r.Cells {
		quanta += float64(c.Quanta)
		weighted += c.BusUtilization * float64(c.Quanta)
	}
	if quanta == 0 {
		return 0
	}
	return weighted / quanta
}

// Failed counts cells that returned an error.
func (r Report) Failed() int {
	n := 0
	for _, c := range r.Cells {
		if c.Err != nil {
			n++
		}
	}
	return n
}

// FirstErr returns the first error in submission order (not completion
// order), so error reporting is as deterministic as the results.
func (r Report) FirstErr() error {
	for _, c := range r.Cells {
		if c.Err != nil {
			return c.Err
		}
	}
	return nil
}

// Speedup is the ratio of serial-equivalent cost to actual wall time —
// the effective parallelism the batch achieved.
func (r Report) Speedup() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.CellWall()) / float64(r.Wall)
}

// Workers resolves a worker bound: n if positive, else GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the cells on a Pool of at most workers goroutines
// (workers <= 0 selects GOMAXPROCS) whose queue holds the whole batch,
// and returns the results in submission order. Every cell is attempted
// even if an earlier one fails; the returned error is the first failure
// in submission order, with the per-cell errors preserved in the
// Report. Results are identical at any worker count: cells are
// independent and the simulator is deterministic, so execution order
// cannot leak into the output.
func Run(workers int, cells []Cell) ([]sim.Result, Report, error) {
	w := min(Workers(workers), max(len(cells), 1))
	p := NewPool(w, len(cells))
	start := time.Now()
	outs := make([]<-chan PoolResult, len(cells))
	for i, c := range cells {
		// The queue holds every cell, so the pool never refuses one.
		outs[i], _ = p.TrySubmit(c)
	}
	p.Close()
	rep := Report{Workers: w, Cells: make([]CellStat, len(cells))}
	results := make([]sim.Result, len(cells))
	for i, out := range outs {
		r := <-out
		results[i], rep.Cells[i] = r.Result, r.Stat
	}
	rep.Wall = time.Since(start)
	rep.PeakOccupancy = int(p.peak.Load())
	return results, rep, rep.FirstErr()
}
