// Package experiments reproduces every table and figure of the
// paper's evaluation, plus the ablations called out in DESIGN.md. Each
// experiment describes its runs as runner.Cell values — a workload mix
// from the registry, a sched.New policy name, a seed and parameters —
// fans them out through the runner on the simulated paper machine, and
// returns structured rows that cmd/figures renders and bench_test.go
// regenerates.
package experiments

import (
	"fmt"

	"busaware/internal/runner"
	"busaware/internal/sim"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// LinuxSeeds are the seeds for the Linux baseline runs; the
	// reported baseline is the mean over seeds. Empty selects
	// DefaultLinuxSeeds.
	LinuxSeeds []int64
	// Engine selects the simulation core for every cell: the default
	// quantum-stepped loop, the event-driven leaping engine, or shadow
	// mode, which runs both and fails on any divergence. Every cell
	// names its scheduler through sched.New, so shadow mode works
	// across the whole figure grid.
	Engine sim.EngineKind
	// Workers bounds the parallel runner's worker pool. Zero selects
	// GOMAXPROCS; 1 forces serial execution. Every cell carries its
	// own seed and builds its own scheduler and workload, and
	// aggregation happens in submission order, so results are
	// identical at any setting.
	Workers int
	// Metrics, when non-nil, accumulates run-level metrics (per-cell
	// wall time, simulated quanta, bus utilization, worker occupancy)
	// for every batch of simulations submitted through the runner.
	Metrics *runner.Metrics
}

// DefaultLinuxSeeds gives the baseline three runs to average over,
// since the 2.4 scheduler's mixing is order-dependent.
var DefaultLinuxSeeds = []int64{1, 2, 3}

func (o Options) seeds() []int64 {
	if len(o.LinuxSeeds) == 0 {
		return DefaultLinuxSeeds
	}
	return o.LinuxSeeds
}

// cell describes one run of mix on the paper machine under the named
// policy (see sched.New): every experiment builds its cells here, and
// adjusts the returned Config and Params where it departs from the
// defaults.
func (o Options) cell(label, policy string, seed int64, mix workload.Mix) runner.Cell {
	return runner.Cell{Label: label, Config: sim.Config{Engine: o.Engine},
		Apps: mix, Policy: policy, Seed: seed}
}

// WorkloadSet identifies the paper's three Section 5 workload
// families.
type WorkloadSet int

// The three experiment sets of Figure 2.
const (
	// SetBBMA: two application instances + four BBMA copies (Fig 2A) —
	// the policies on an already saturated bus.
	SetBBMA WorkloadSet = iota
	// SetNBBMA: two application instances + four nBBMA copies
	// (Fig 2B) — low-bandwidth companions available.
	SetNBBMA
	// SetMixed: two instances + two BBMA + two nBBMA (Fig 2C).
	SetMixed
)

func (s WorkloadSet) String() string {
	switch s {
	case SetBBMA:
		return "2Apps+4BBMA"
	case SetNBBMA:
		return "2Apps+4nBBMA"
	case SetMixed:
		return "2Apps+2BBMA+2nBBMA"
	default:
		return "unknown"
	}
}

// mix is the set's workload for one application profile: two
// instances of it plus the set's antagonists.
func (s WorkloadSet) mix(app workload.Profile) workload.Mix {
	mix := workload.Mix{{Profile: app, Count: 2}}
	switch s {
	case SetBBMA:
		mix = append(mix, workload.Group{Profile: workload.BBMA(), Count: 4})
	case SetNBBMA:
		mix = append(mix, workload.Group{Profile: workload.NBBMA(), Count: 4})
	case SetMixed:
		mix = append(mix, workload.Group{Profile: workload.BBMA(), Count: 2},
			workload.Group{Profile: workload.NBBMA(), Count: 2})
	}
	return mix
}

// runCells fans a batch of independent cells out through the parallel
// runner, records its report under name when metrics collection is on,
// and returns the results in submission order.
func (o Options) runCells(name string, cells []runner.Cell) ([]sim.Result, error) {
	results, rep, err := runner.Run(o.Workers, cells)
	if o.Metrics != nil {
		o.Metrics.Observe(name, rep)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// linuxCells builds one baseline cell per seed for the workload.
func (o Options) linuxCells(app workload.Profile, set WorkloadSet) []runner.Cell {
	var cells []runner.Cell
	for _, seed := range o.seeds() {
		cells = append(cells, o.cell(fmt.Sprintf("linux/%s/%s/seed%d", app.Name, set, seed), "linux", seed, set.mix(app)))
	}
	return cells
}

// meanLinuxFromResults averages the per-seed baseline runs.
func meanLinuxFromResults(app workload.Profile, set WorkloadSet, results []sim.Result) (units.Time, error) {
	var sum units.Time
	for _, res := range results {
		if res.TimedOut {
			return 0, fmt.Errorf("experiments: Linux run timed out for %s/%s", app.Name, set)
		}
		sum += res.MeanTurnaround()
	}
	return sum / units.Time(len(results)), nil
}

// meanLinuxTurnaround runs the workload under the Linux baseline for
// each seed and returns the mean of the per-run mean turnarounds.
func meanLinuxTurnaround(opt Options, app workload.Profile, set WorkloadSet) (units.Time, error) {
	results, err := opt.runCells(fmt.Sprintf("linux/%s/%s", app.Name, set), opt.linuxCells(app, set))
	if err != nil {
		return 0, err
	}
	return meanLinuxFromResults(app, set, results)
}

// improvement returns the paper's metric: percentage reduction of the
// mean turnaround relative to the baseline.
func improvement(baseline, policy units.Time) float64 {
	if baseline <= 0 {
		return 0
	}
	return float64(baseline-policy) / float64(baseline) * 100
}
