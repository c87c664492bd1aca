package experiments

import (
	"fmt"

	"busaware/internal/faults"
	"busaware/internal/sched"
	"busaware/internal/workload"
)

// FaultClass names one injectable failure mode swept by Degradation.
type FaultClass string

// The three classes the degradation sweep exercises, from mildest to
// harshest: lost telemetry, lost enforcement signals, crashed clients.
const (
	ClassSampleLoss FaultClass = "sample-loss"
	ClassSignalLoss FaultClass = "signal-loss"
	ClassCrash      FaultClass = "crash"
)

// config builds the single-class fault configuration at the given rate.
func (c FaultClass) config(seed int64, rate float64) faults.Config {
	cfg := faults.Config{Seed: seed}
	switch c {
	case ClassSampleLoss:
		cfg.SampleLoss = rate
	case ClassSignalLoss:
		cfg.SignalLoss = rate
	case ClassCrash:
		cfg.CrashProb = rate
	}
	return cfg
}

// DegradationClasses is the sweep order.
var DegradationClasses = []FaultClass{ClassSampleLoss, ClassSignalLoss, ClassCrash}

// DefaultDegradationRates is the default fault-rate grid.
var DefaultDegradationRates = []float64{0, 0.1, 0.3, 0.5}

// DegradationPoint is one cell of the sweep: both policies' improvement
// over the clean Linux baseline with one fault class at one rate.
type DegradationPoint struct {
	Class FaultClass
	Rate  float64

	// LQImprovement / QWImprovement are percentages over the fault-free
	// Linux baseline; positive means the degraded policy still beats
	// clean Linux.
	LQImprovement float64
	QWImprovement float64

	// LQFaults / QWFaults record what the injector actually did, so a
	// row can be audited (a rate-0 row must show zero faults).
	LQFaults faults.Stats
	QWFaults faults.Stats
}

// Degradation sweeps fault rates against the paper's mixed workload
// (two BT instances + two BBMA + two nBBMA) and reports how much of the
// policies' improvement over Linux survives. The Linux baseline runs
// clean: the kernel scheduler has no manager, counters or signals to
// break, so injected faults model the managed stack only. Both policies
// run with the stale-sample fallback enabled (K = DefaultStaleQuanta).
// The sweep is deterministic in seed. Nil rates selects
// DefaultDegradationRates.
func Degradation(opt Options, rates []float64, seed int64) ([]DegradationPoint, error) {
	if len(rates) == 0 {
		rates = DefaultDegradationRates
	}
	app, ok := workload.ByName("BT")
	if !ok {
		return nil, fmt.Errorf("experiments: BT profile missing from registry")
	}
	// One batch: the per-seed clean baselines, then LQ+QW per
	// (class, rate) cell — every cell independent, submission order
	// fixed, so the whole sweep fans out deterministically.
	cells := opt.linuxCells(app, SetMixed)
	for ci, class := range DegradationClasses {
		for ri, rate := range rates {
			fcfg := class.config(seed+int64(100*ci+ri), rate)
			for _, policy := range []string{"latest", "window"} {
				c := opt.cell(fmt.Sprintf("degr/%s/%.2f/%s", class, rate, policy), policy, 0, SetMixed.mix(app))
				c.Config.Faults = fcfg
				c.Params.StaleQuanta = sched.DefaultStaleQuanta
				cells = append(cells, c)
			}
		}
	}
	results, err := opt.runCells("degradation", cells)
	if err != nil {
		return nil, err
	}

	nSeeds := len(opt.seeds())
	baseline, err := meanLinuxFromResults(app, SetMixed, results[:nSeeds])
	if err != nil {
		return nil, err
	}
	var points []DegradationPoint
	idx := nSeeds
	for _, class := range DegradationClasses {
		for _, rate := range rates {
			lq, qw := results[idx], results[idx+1]
			idx += 2
			if lq.TimedOut || qw.TimedOut {
				return nil, fmt.Errorf("experiments: degradation %s@%.2f timed out", class, rate)
			}
			points = append(points, DegradationPoint{
				Class:         class,
				Rate:          rate,
				LQImprovement: improvement(baseline, lq.MeanTurnaround()),
				QWImprovement: improvement(baseline, qw.MeanTurnaround()),
				LQFaults:      lq.FaultStats,
				QWFaults:      qw.FaultStats,
			})
		}
	}
	return points, nil
}
