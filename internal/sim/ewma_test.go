package sim

import (
	"testing"

	"busaware/internal/units"
	"busaware/internal/workload"
)

// TestEWMAWeight pins the EWMA policy's figure on Raytrace x2 next to
// two BBMA and two nBBMA: the policy table's weight of 0.4 reproduces
// the mean turnaround the reproduction reports.
func TestEWMAWeight(t *testing.T) {
	rt := profile(t, "Raytrace")
	apps := []*workload.App{
		workload.NewApp(rt, "Raytrace#1"),
		workload.NewApp(rt, "Raytrace#2"),
		workload.NewApp(workload.BBMA(), "BBMA#1"),
		workload.NewApp(workload.BBMA(), "BBMA#2"),
		workload.NewApp(workload.NBBMA(), "nBBMA#1"),
		workload.NewApp(workload.NBBMA(), "nBBMA#2"),
	}
	res, err := Run(Config{}, policy("ewma"), apps)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MeanTurnaround(); got != 41700*units.Millisecond {
		t.Errorf("mean turnaround %v, want 41.7s", got)
	}
}
