package sim

import (
	"testing"

	"busaware/internal/sched"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// TestEWMAWeight checks that an EWMA policy runs with the weight it was
// built with: on Raytrace x2 next to two BBMA and two nBBMA, the weight
// moves the mean turnaround, and the policy table's 0.4 reproduces the
// figure the reproduction reports.
func TestEWMAWeight(t *testing.T) {
	run := func(alpha float64) units.Time {
		t.Helper()
		rt := profile(t, "Raytrace")
		apps := []*workload.App{
			workload.NewApp(rt, "Raytrace#1"),
			workload.NewApp(rt, "Raytrace#2"),
			workload.NewApp(workload.BBMA(), "BBMA#1"),
			workload.NewApp(workload.BBMA(), "BBMA#2"),
			workload.NewApp(workload.NBBMA(), "nBBMA#1"),
			workload.NewApp(workload.NBBMA(), "nBBMA#2"),
		}
		res, err := Run(Config{}, sched.NewEWMAPolicy(4, units.SustainedBusRate, alpha), apps)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanTurnaround()
	}
	mid := run(0.4)
	if mid != 41700*units.Millisecond {
		t.Errorf("alpha 0.4: mean turnaround %v, want 41.7s", mid)
	}
	for _, alpha := range []float64{0.05, 0.9} {
		if got := run(alpha); got == mid {
			t.Errorf("alpha %v: mean turnaround %v equals alpha 0.4's; the weight is not read", alpha, got)
		}
	}
}
