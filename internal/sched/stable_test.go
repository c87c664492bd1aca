package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"busaware/internal/units"
	"busaware/internal/workload"
)

// TestStableNeedsTheNextOrder: the samples one quantum pushes can
// reorder the next selection even when every job ran and every
// estimate is now a fixed point. The placements, and with them the bus
// request vector, follow that order, so Stable must refuse until the
// selection it certifies is the one the last quantum ran.
func TestStableNeedsTheNextOrder(t *testing.T) {
	lq := newBandwidthAware("LatestQuantum", EstLatest, 1, 8, Params{})
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
	lq.Schedule(nil) // no samples yet: list order
	push()
	if lq.Stable() {
		t.Error("stable although the new samples reorder the next selection")
	}
	if got, want := names(lq.Select()), []string{"B#0", "B#2", "B#1"}; !slices.Equal(got, want) {
		t.Fatalf("next selection %v, want %v", got, want)
	}
	lq.Schedule(nil)
	push()
	if !lq.Stable() {
		t.Error("not stable although the next selection repeats the last")
	}
}

// gangApp is an application of the given gang size.
func gangApp(name string, threads int) *workload.App {
	p := workload.Profile{Name: name, Threads: threads, SoloTime: units.Second,
		Phases: []workload.Phase{{Duration: units.Second, Demand: 1}}}
	return workload.NewApp(p, name)
}

// TestStableBlindSelection: two gangs that fit the machine together
// leave no traversal step two candidates to rank, so the selection
// cannot read the estimates, and Quanta Window is Stable after its
// first quantum, long before its windows hold five equal samples. The
// guard's fallback admits a lone candidate that overshoots the budget
// just the same. A third gang gives the estimates an order to decide
// again, so the unsaturated windows refuse.
func TestStableBlindSelection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      Params
		gangs  []int
		rates  []units.Rate
		stable bool
	}{
		{"two gangs", Params{}, []int{2, 2}, []units.Rate{3, 12}, true},
		{"two gangs over the guard's budget", Params{Guard: true}, []int{2, 2}, []units.Rate{20, 20}, true},
		{"three gangs", Params{}, []int{2, 1, 1}, []units.Rate{3, 12, 1}, false},
	} {
		qw := tuned(t, "window", tc.p)
		var jobs []*Job
		for i, n := range tc.gangs {
			j := JobFor(qw, gangApp(fmt.Sprintf("g%d", i), n))
			qw.Add(j)
			jobs = append(jobs, j)
		}
		qw.Schedule(nil)
		for i, j := range jobs {
			j.PushSample(tc.rates[i])
		}
		if got := qw.Stable(); got != tc.stable {
			t.Errorf("%s: Stable() = %v after the first quantum, want %v", tc.name, got, tc.stable)
		}
	}
}

// Property: a selection Select reports as estimate-blind repeats, job
// for job, on any other estimates, with or without the guard.
func TestBlindSelectionIgnoresEstimates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lq := tuned(t, "latest", Params{Guard: rng.Intn(2) == 0})
		var jobs []*Job
		for i := 0; i < 1+rng.Intn(4); i++ {
			j := NewJob(gangApp(fmt.Sprintf("g%d", i), 1+rng.Intn(4)), 1, 0)
			lq.Add(j)
			jobs = append(jobs, j)
		}
		resample := func() {
			for _, j := range jobs {
				j.PushSample(units.Rate(rng.Float64() * 40))
			}
		}
		resample()
		first := names(lq.Select())
		if !lq.blind {
			return true
		}
		for k := 0; k < 20; k++ {
			resample()
			if !slices.Equal(names(lq.Select()), first) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
