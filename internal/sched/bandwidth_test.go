package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"busaware/internal/machine"
	"busaware/internal/units"
	"busaware/internal/workload"
)

func job(t *testing.T, name string, windowLen int) *Job {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return NewJob(workload.NewApp(p, name+"#t"), windowLen, 0)
}

// tuned builds the named bandwidth-aware policy for the paper machine
// through New, the one door Params enter by.
func tuned(t *testing.T, policy string, p Params) *BandwidthAware {
	t.Helper()
	s, err := New(policy, machine.DefaultConfig(), 1, p)
	if err != nil {
		t.Fatal(err)
	}
	return s.(*BandwidthAware)
}

func TestFitnessEquation(t *testing.T) {
	// Perfect match: fitness = 1000.
	if got := Fitness(10, 10); got != 1000 {
		t.Errorf("Fitness(10,10) = %v, want 1000", got)
	}
	// One unit away: 500.
	if got := Fitness(10, 11); got != 500 {
		t.Errorf("Fitness(10,11) = %v, want 500", got)
	}
	// Symmetric.
	if Fitness(3, 7) != Fitness(7, 3) {
		t.Error("fitness not symmetric")
	}
	// Negative available bandwidth (saturated bus): the lowest-demand
	// job is fittest.
	low, high := Fitness(-5, 1), Fitness(-5, 20)
	if low <= high {
		t.Errorf("under saturation low-demand job should win: %v vs %v", low, high)
	}
}

// Property: fitness is maximized exactly at bbw == abbw and decreases
// monotonically with distance.
func TestFitnessMonotoneProperty(t *testing.T) {
	f := func(a, d1, d2 float64) bool {
		a = math.Mod(a, 100)
		d1, d2 = math.Abs(math.Mod(d1, 50)), math.Abs(math.Mod(d2, 50))
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		near := Fitness(units.Rate(a), units.Rate(a+d1))
		far := Fitness(units.Rate(a), units.Rate(a+d2))
		return near >= far && Fitness(units.Rate(a), units.Rate(a)) == 1000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJobEstimators(t *testing.T) {
	j := NewJob(workload.NewApp(workload.BBMA(), "B#1"), 3, 0.5)
	j.PushSample(10)
	j.PushSample(20)
	j.PushSample(30)
	j.PushSample(40) // window now {20,30,40}
	if got := j.LatestRate(); got != 40 {
		t.Errorf("latest = %v", got)
	}
	if got := j.WindowRate(); got != 30 {
		t.Errorf("window mean = %v", got)
	}
	if j.window.Len() != 3 {
		t.Errorf("samples = %d", j.window.Len())
	}
	if j.EWMARate() <= 0 {
		t.Error("ewma should be positive")
	}
	// Without EWMA configured, EWMARate falls back to latest.
	j2 := NewJob(workload.NewApp(workload.BBMA(), "B#2"), 1, 0)
	j2.PushSample(7)
	if j2.EWMARate() != 7 {
		t.Errorf("fallback ewma = %v", j2.EWMARate())
	}
}

func TestTrueRateReflectsPhases(t *testing.T) {
	j := job(t, "CG", 1)
	want := 23.31 / 2
	if got := float64(j.TrueRate()); math.Abs(got-want) > 0.01 {
		t.Errorf("true rate = %v, want %v", got, want)
	}
}

func TestSelectHeadOfListAlwaysRuns(t *testing.T) {
	lq := tuned(t, "latest", Params{})
	jHigh := job(t, "CG", 1)
	jHigh.PushSample(11.65)
	jB1 := NewJob(workload.NewApp(workload.BBMA(), "B#1"), 1, 0)
	jB1.PushSample(23.6)
	jB2 := NewJob(workload.NewApp(workload.BBMA(), "B#2"), 1, 0)
	jB2.PushSample(23.6)
	lq.Add(jHigh)
	lq.Add(jB1)
	lq.Add(jB2)
	sel := lq.Select()
	if len(sel) == 0 || sel[0] != jHigh {
		t.Fatalf("head of list not allocated first: %v", names(sel))
	}
}

func names(js []*Job) []string {
	out := make([]string, len(js))
	for i, j := range js {
		out[i] = j.App.Instance
	}
	return out
}

// The core pairing behaviour: with a high-bandwidth app at the head,
// the policy should fill remaining processors with low-bandwidth jobs
// rather than more high-bandwidth ones.
func TestSelectPairsHighWithLow(t *testing.T) {
	lq := tuned(t, "latest", Params{})
	cg := job(t, "CG", 1) // 2 threads @ 11.65
	cg.PushSample(11.65)
	bbma1 := NewJob(workload.NewApp(workload.BBMA(), "B#1"), 1, 0)
	bbma1.PushSample(23.6)
	bbma2 := NewJob(workload.NewApp(workload.BBMA(), "B#2"), 1, 0)
	bbma2.PushSample(23.6)
	n1 := NewJob(workload.NewApp(workload.NBBMA(), "n#1"), 1, 0)
	n1.PushSample(0.0037)
	n2 := NewJob(workload.NewApp(workload.NBBMA(), "n#2"), 1, 0)
	n2.PushSample(0.0037)
	for _, j := range []*Job{cg, bbma1, bbma2, n1, n2} {
		lq.Add(j)
	}
	sel := lq.Select()
	// CG (head) takes 2 CPUs consuming 23.3 of 29.5; remaining
	// 6.2/2cpu = 3.1 per proc; nBBMA (|3.1-0.0037|) beats BBMA
	// (|3.1-23.6|).
	got := map[*Job]bool{}
	for _, j := range sel {
		got[j] = true
	}
	if !got[cg] || !got[n1] || !got[n2] || got[bbma1] || got[bbma2] {
		t.Errorf("selection = %v, want CG with the two nBBMAs", names(sel))
	}
}

// Reverse scenario from the paper: low-bandwidth jobs allocated first
// make high-bandwidth ones the best candidates.
func TestSelectPairsLowWithHigh(t *testing.T) {
	lq := tuned(t, "latest", Params{})
	rad := job(t, "Radiosity", 1) // 2 threads @ 0.24
	rad.PushSample(0.24)
	bbma := NewJob(workload.NewApp(workload.BBMA(), "B#1"), 1, 0)
	bbma.PushSample(23.6)
	n1 := NewJob(workload.NewApp(workload.NBBMA(), "n#1"), 1, 0)
	n1.PushSample(0.0037)
	n2 := NewJob(workload.NewApp(workload.NBBMA(), "n#2"), 1, 0)
	n2.PushSample(0.0037)
	for _, j := range []*Job{rad, bbma, n1, n2} {
		lq.Add(j)
	}
	sel := lq.Select()
	got := map[*Job]bool{}
	for _, j := range sel {
		got[j] = true
	}
	// After Radiosity (0.48 total), ~29/2 per proc remains: BBMA
	// (23.6) is far closer than nBBMA (0.0037).
	if !got[rad] || !got[bbma] {
		t.Errorf("selection = %v, want Radiosity + BBMA among them", names(sel))
	}
}

// Saturated bus: when demand exceeds capacity, lowest-demand jobs win
// the remaining slots.
func TestSelectSaturatedPrefersLowest(t *testing.T) {
	lq := tuned(t, "latest", Params{})
	b1 := NewJob(workload.NewApp(workload.BBMA(), "B#1"), 1, 0)
	b1.PushSample(23.6)
	b2 := NewJob(workload.NewApp(workload.BBMA(), "B#2"), 1, 0)
	b2.PushSample(23.6)
	b3 := NewJob(workload.NewApp(workload.BBMA(), "B#3"), 1, 0)
	b3.PushSample(23.6)
	lo := NewJob(workload.NewApp(workload.NBBMA(), "n#1"), 1, 0)
	lo.PushSample(0.0037)
	for _, j := range []*Job{b1, b2, lo, b3} {
		lq.Add(j)
	}
	sel := lq.Select()
	got := map[*Job]bool{}
	for _, j := range sel {
		got[j] = true
	}
	if !got[lo] {
		t.Errorf("selection = %v, want the low-bandwidth job included once bus overcommitted", names(sel))
	}
}

// Starvation freedom: rotating the list guarantees every job
// eventually reaches the head and runs, regardless of its bandwidth.
func TestNoStarvationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lq := tuned(t, "window", Params{})
		var jobs []*Job
		for i := 0; i < 6; i++ {
			p := workload.RandomProfile(rng, "fuzz")
			if p.Threads > 4 {
				p.Threads = 4
			}
			j := NewJob(workload.NewApp(p, p.Name), DefaultWindow, 0)
			j.PushSample(units.Rate(rng.Float64() * 24))
			jobs = append(jobs, j)
			lq.Add(j)
		}
		ranCount := make(map[*Job]int)
		for q := 0; q < 60; q++ {
			for _, j := range lq.Select() {
				ranCount[j]++
			}
			// Mimic the scheduler's own rotation by calling Schedule.
			lq.Schedule(nil)
		}
		for _, j := range jobs {
			if ranCount[j] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Gang integrity: placements never split an application, and never
// exceed the processor count.
func TestScheduleGangIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lq := tuned(t, "latest", Params{})
		apps := make(map[*workload.App]int)
		for i := 0; i < 5; i++ {
			p := workload.RandomProfile(rng, "fuzz")
			if p.Threads > 4 {
				p.Threads = 4
			}
			app := workload.NewApp(p, p.Name)
			apps[app] = p.Threads
			j := NewJob(app, 1, 0)
			j.PushSample(units.Rate(rng.Float64() * 24))
			lq.Add(j)
		}
		for q := 0; q < 20; q++ {
			pl := lq.Schedule(nil)
			if len(pl) > 4 {
				return false
			}
			cpus := map[int]bool{}
			placedPerApp := map[*workload.App]int{}
			for _, p := range pl {
				if cpus[p.CPU] {
					return false
				}
				cpus[p.CPU] = true
				placedPerApp[p.Thread.App]++
			}
			for app, n := range placedPerApp {
				if n != apps[app] {
					return false // split gang
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRemoveJob(t *testing.T) {
	lq := tuned(t, "latest", Params{})
	j1 := job(t, "CG", 1)
	j2 := job(t, "SP", 1)
	lq.Add(j1)
	lq.Add(j2)
	lq.Remove(j1)
	if len(lq.Jobs()) != 1 || lq.Jobs()[0] != j2 {
		t.Errorf("jobs after remove = %v", names(lq.Jobs()))
	}
	// Removing a job not in the list is a no-op.
	lq.Remove(j1)
	if len(lq.Jobs()) != 1 {
		t.Error("double remove corrupted list")
	}
}

func TestOptionValidation(t *testing.T) {
	for _, p := range []Params{{}, {Quantum: -1, Window: -1, StaleQuanta: -1}} {
		b := tuned(t, "window", p)
		if b.Quantum() != DefaultQuantum {
			t.Errorf("%+v: quantum %v, want the default", p, b.Quantum())
		}
		if b.windowLen != DefaultWindow {
			t.Errorf("%+v: window %d, want the default", p, b.windowLen)
		}
		if b.staleK != 0 || b.guard {
			t.Errorf("%+v: stale fallback %d, guard %v; want both off", p, b.staleK, b.guard)
		}
	}
	b := tuned(t, "window", Params{Quantum: 100 * units.Millisecond, Window: 9})
	if b.Quantum() != 100*units.Millisecond || b.windowLen != 9 {
		t.Error("params not applied")
	}
}

func TestPolicyIdentities(t *testing.T) {
	for _, tc := range []struct {
		policy, name string
		est          Estimator
		window       int
	}{
		{"latest", "LatestQuantum", EstLatest, 1},
		{"window", "QuantaWindow", EstWindow, DefaultWindow},
		{"ewma", "EWMA", EstEWMA, DefaultWindow},
		{"oracle", "Oracle", EstOracle, 1},
		{"gang", "GangRR", EstNone, 1},
	} {
		if b := tuned(t, tc.policy, Params{}); b.Name() != tc.name || b.estimator != tc.est || b.windowLen != tc.window {
			t.Errorf("%s is %s with estimator %d and window %d", tc.policy, b.Name(), b.estimator, b.windowLen)
		}
	}
	// The policy table hands every Params field to the five policies
	// of the bandwidth-aware family.
	p := Params{Quantum: 100 * units.Millisecond, Window: 7, Guard: true, StaleQuanta: 3}
	for _, name := range []string{"latest", "window", "ewma", "oracle", "gang"} {
		b := tuned(t, name, p)
		got := Params{Quantum: b.Quantum(), Window: b.windowLen, Guard: b.guard, StaleQuanta: b.staleK}
		if got != p {
			t.Errorf("New(%q, %+v) is tuned %+v", name, p, got)
		}
	}
}

func TestJobsTooBigAreSkipped(t *testing.T) {
	lq := newBandwidthAware("LatestQuantum", EstLatest, 1, 2, Params{})
	big := NewJob(workload.NewApp(workload.STREAM(), "S#1"), 1, 0) // 4 threads > 2 CPUs
	small := job(t, "CG", 1)
	lq.Add(big)
	lq.Add(small)
	sel := lq.Select()
	for _, j := range sel {
		if j == big {
			t.Error("oversized gang selected")
		}
	}
	if len(sel) != 1 || sel[0] != small {
		t.Errorf("selection = %v", names(sel))
	}
}
