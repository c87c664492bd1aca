package sched

import (
	"fmt"
	"slices"
	"testing"

	"busaware/internal/units"
	"busaware/internal/workload"
)

// TestStableNeedsTheNextOrder: the samples one quantum pushes can
// reorder the next selection even when every job ran and every
// estimate is now a fixed point. The placements, and with them the bus
// request vector, follow that order, so Stable must refuse until the
// selection it certifies is the one the last quantum ran.
func TestStableNeedsTheNextOrder(t *testing.T) {
	lq := NewLatestQuantum(8, units.SustainedBusRate)
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j := NewJob(workload.NewApp(workload.BBMA(), fmt.Sprintf("B#%d", i)), 1, 0)
		lq.Add(j)
		jobs = append(jobs, j)
	}
	push := func() {
		for i, r := range []units.Rate{1, 10, 4} {
			jobs[i].PushSample(r)
		}
	}
	lq.Schedule(0, nil) // no samples yet: list order
	push()
	if lq.Stable() {
		t.Error("stable although the new samples reorder the next selection")
	}
	if got, want := names(lq.Select()), []string{"B#0", "B#2", "B#1"}; !slices.Equal(got, want) {
		t.Fatalf("next selection %v, want %v", got, want)
	}
	lq.Schedule(units.Millisecond, nil)
	push()
	if !lq.Stable() {
		t.Error("not stable although the next selection repeats the last")
	}
}
