package experiments

import (
	"fmt"
	"math/rand"

	"busaware/internal/machine"
	"busaware/internal/runner"
	"busaware/internal/stats"
	"busaware/internal/workload"
)

// RobustnessResult summarizes the policies over randomly generated
// heterogeneous workloads — an extension beyond the paper's
// hand-picked mixes that checks the policies did not overfit them.
type RobustnessResult struct {
	Workloads int
	// LQ and QW are the distributions of per-workload improvement (%)
	// over the Linux baseline.
	LQ stats.Summary
	QW stats.Summary
	// LQWins / QWWins count workloads where the policy strictly beat
	// Linux.
	LQWins int
	QWWins int
}

// Robustness generates n random workloads (each: two 1-4 thread
// synthetic applications with random phase structure plus a random
// mix of 2-4 antagonists) and measures both policies against Linux.
// The generator is deterministic in seed.
func Robustness(opt Options, n int, seed int64) (RobustnessResult, error) {
	if n <= 0 {
		n = 20
	}
	out := RobustnessResult{Workloads: n}
	var lqImps, qwImps []float64

	ncpu := machine.DefaultConfig().NumCPUs
	// Each workload draws from its own rng seeded with seed+i, so mix i
	// is a pure function of (seed, i): inserting, removing or reordering
	// workloads never reshuffles the others, and generation order is
	// irrelevant. Only the simulation cells fan out.
	var cells []runner.Cell
	for i := 0; i < n; i++ {
		wrng := rand.New(rand.NewSource(seed + int64(i)))
		// Two random finite applications...
		p1 := workload.RandomProfile(wrng, fmt.Sprintf("rnd%da", i))
		p2 := workload.RandomProfile(wrng, fmt.Sprintf("rnd%db", i))
		p1.Threads = min(p1.Threads, ncpu)
		p2.Threads = min(p2.Threads, ncpu)
		// ... plus a random antagonist mix.
		mix := workload.Mix{
			{Profile: p1, Count: 1},
			{Profile: p2, Count: 1},
			{Profile: workload.BBMA(), Count: 1 + wrng.Intn(3)},
			{Profile: workload.NBBMA(), Count: 1 + wrng.Intn(3)},
		}
		linuxSeed := wrng.Int63()
		cells = append(cells,
			opt.cell(fmt.Sprintf("robust/%d/linux", i), "linux", linuxSeed, mix),
			opt.cell(fmt.Sprintf("robust/%d/LQ", i), "latest", 0, mix),
			opt.cell(fmt.Sprintf("robust/%d/QW", i), "window", 0, mix))
	}
	results, err := opt.runCells("robustness", cells)
	if err != nil {
		return out, err
	}
	for i := 0; i < n; i++ {
		linux, lq, qw := results[i*3], results[i*3+1], results[i*3+2]
		if linux.TimedOut || lq.TimedOut || qw.TimedOut {
			return out, fmt.Errorf("experiments: robustness workload %d timed out", i)
		}
		lqImp := improvement(linux.MeanTurnaround(), lq.MeanTurnaround())
		qwImp := improvement(linux.MeanTurnaround(), qw.MeanTurnaround())
		lqImps = append(lqImps, lqImp)
		qwImps = append(qwImps, qwImp)
		if lqImp > 0 {
			out.LQWins++
		}
		if qwImp > 0 {
			out.QWWins++
		}
	}
	if out.LQ, err = stats.Summarize(lqImps); err != nil {
		return out, err
	}
	if out.QW, err = stats.Summarize(qwImps); err != nil {
		return out, err
	}
	return out, nil
}
