package experiments

import (
	"fmt"

	"busaware/internal/cache"
	"busaware/internal/mem"
	"busaware/internal/runner"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// CalibrationResult pins the simulator against the paper's Section 3
// machine constants, measured the way the authors measured them: by
// running STREAM with requests issued from all processors.
type CalibrationResult struct {
	// SustainedRate is the cumulative transaction rate four STREAM
	// threads achieve (paper: 29.5 trans/usec).
	SustainedRate units.Rate
	// SustainedMBps is the same expressed as bandwidth (paper:
	// 1797 MB/s).
	SustainedMBps float64
	// BytesPerTransaction is the configured line size (paper: ~64 B,
	// derived from the two numbers above).
	BytesPerTransaction units.Bytes
	// PeakMBps is the nominal bus peak (paper: 3.2 GB/s).
	PeakMBps float64
}

// Calibrate runs the simulated STREAM calibration. The single run
// goes through the runner too, so metrics collection covers the whole
// sweep uniformly.
func Calibrate(opt Options) (CalibrationResult, error) {
	results, err := opt.runCells("calibration", []runner.Cell{
		opt.cell("cal/STREAM", "gang", 0, workload.Mix{{Profile: workload.STREAM(), Count: 1}}),
	})
	if err != nil {
		return CalibrationResult{}, err
	}
	res := results[0]
	if res.TimedOut {
		return CalibrationResult{}, fmt.Errorf("experiments: STREAM calibration timed out")
	}
	rate := res.Apps[0].MeanBusRate
	return CalibrationResult{
		SustainedRate:       rate,
		SustainedMBps:       rate.MBPerSec(),
		BytesPerTransaction: units.BytesPerTransaction,
		PeakMBps:            float64(units.PeakBusBandwidth) / 1e6,
	}, nil
}

// HitRateResult derives the microbenchmark cache behaviour the paper
// asserts, from first principles: the address patterns played through
// the set-associative L2 simulator.
type HitRateResult struct {
	Name    string
	Refs    uint64
	HitRate float64
	// BusTransPerRef is the bus traffic per reference (fills +
	// writebacks), the quantity that turns a pattern into bus demand.
	BusTransPerRef float64
}

// HitRates runs the BBMA and nBBMA patterns (and a STREAM triad for
// reference) through the Xeon L2 model.
func HitRates() ([]HitRateResult, error) {
	cfg := cache.XeonL2()
	type pattern struct {
		name  string
		trace mem.Trace
	}
	patterns := []pattern{
		{"BBMA(column-wise, 2x L2)", mem.NewBBMA(cfg.Size, cfg.LineSize)},
		{"nBBMA(row-wise, L2/2)", mem.NewNBBMA(cfg.Size, 20)},
		{"STREAM triad(4x L2 arrays)", &mem.StreamTrace{Kernel: mem.StreamTriad, ArrayBytes: 4 * cfg.Size, Passes: 3, Base: 1 << 32}},
	}
	var out []HitRateResult
	for _, p := range patterns {
		c, err := cache.New(cfg)
		if err != nil {
			return nil, err
		}
		s := c.Run(p.trace)
		if s.Refs == 0 {
			return nil, fmt.Errorf("experiments: pattern %s produced no references", p.name)
		}
		out = append(out, HitRateResult{
			Name:           p.name,
			Refs:           s.Refs,
			HitRate:        s.HitRate(),
			BusTransPerRef: float64(s.BusTransactions()) / float64(s.Refs),
		})
	}
	return out, nil
}
