package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"busaware/internal/machine"
	"busaware/internal/sched"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Stress test: every scheduler on many random workloads, asserting the
// simulator-wide invariants that no calibration choice may break.
//
//   - Run never errors or panics on valid input.
//   - Every finite application completes with Turnaround >= SoloTime
//     (no application finishes faster than its uncontended time).
//   - Counters are consistent: each finite app's recorded transactions
//     match its threads' counter totals.
//   - Endless antagonists never appear in the results.
func TestSchedulerStressInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep in short mode")
	}
	mkScheds := func(seed int64) []sched.Scheduler {
		var out []sched.Scheduler
		for _, name := range []string{"linux", "rr", "gang", "latest", "window", "ewma", "oracle", "optimal"} {
			s, err := sched.New(name, machine.DefaultConfig(), seed, sched.Params{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return out
	}

	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 17))
		build := func() []*workload.App {
			var apps []*workload.App
			nApps := 1 + rng.Intn(3)
			for i := 0; i < nApps; i++ {
				p := workload.RandomProfile(rng, fmt.Sprintf("s%d-%d", trial, i))
				if p.Threads > 4 {
					p.Threads = 4
				}
				// Keep runs short for the sweep.
				p.SoloTime = units.Time(2+rng.Intn(4)) * units.Second
				apps = append(apps, workload.NewApp(p, fmt.Sprintf("%s#1", p.Name)))
			}
			for i := 0; i < rng.Intn(3); i++ {
				apps = append(apps, workload.NewApp(workload.BBMA(), fmt.Sprintf("B#%d", i+1)))
			}
			for i := 0; i < rng.Intn(3); i++ {
				apps = append(apps, workload.NewApp(workload.NBBMA(), fmt.Sprintf("n#%d", i+1)))
			}
			return apps
		}
		// The same workload spec for every scheduler in this trial.
		specs := build()
		_ = specs
		for _, s := range mkScheds(int64(trial)) {
			apps := build()
			res, err := Run(Config{Machine: machine.DefaultConfig()}, s, apps)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			if res.TimedOut {
				t.Fatalf("trial %d %s: timed out", trial, s.Name())
			}
			for _, ar := range res.Apps {
				if ar.Turnaround < ar.SoloTime {
					t.Errorf("trial %d %s: %s finished in %v, faster than solo %v",
						trial, s.Name(), ar.Instance, ar.Turnaround, ar.SoloTime)
				}
				if ar.Profile == "BBMA" || ar.Profile == "nBBMA" {
					t.Errorf("trial %d %s: endless app %s in results", trial, s.Name(), ar.Instance)
				}
			}
			// Counter consistency.
			for _, app := range apps {
				if app.Profile.Endless() {
					continue
				}
				var fromCounters uint64
				for _, th := range app.Threads {
					fromCounters += th.Counters.Read()
				}
				var recorded uint64
				for _, ar := range res.Apps {
					if ar.Instance == app.Instance {
						recorded = ar.Transactions
					}
				}
				// The sim's per-quantum accumulation may truncate
				// fractional transactions; allow 1% slack.
				diff := int64(fromCounters) - int64(recorded)
				if diff < 0 {
					diff = -diff
				}
				if fromCounters > 1000 && float64(diff) > 0.01*float64(fromCounters) {
					t.Errorf("trial %d %s: %s counters %d vs recorded %d",
						trial, s.Name(), app.Instance, fromCounters, recorded)
				}
			}
		}
	}
}

// The progress invariant at machine level: wall time times CPU count
// bounds total solo-equivalent progress.
func TestProgressConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		p := workload.RandomProfile(rng, fmt.Sprintf("c%d", trial))
		if p.Threads > 4 {
			p.Threads = 4
		}
		p.SoloTime = 3 * units.Second
		apps := []*workload.App{
			workload.NewApp(p, "A#1"),
			workload.NewApp(workload.BBMA(), "B#1"),
		}
		res, err := Run(Config{}, policy("window"), apps)
		if err != nil {
			t.Fatal(err)
		}
		var progress float64
		for _, app := range apps {
			for _, th := range app.Threads {
				progress += th.Progress()
			}
		}
		budget := float64(res.EndTime) * 4 // 4 CPUs
		if progress > budget*1.001 {
			t.Errorf("trial %d: total progress %.0f exceeds CPU budget %.0f", trial, progress, budget)
		}
	}
}
