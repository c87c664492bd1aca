package sched

import (
	"testing"

	"busaware/internal/units"
	"busaware/internal/workload"
)

func staleTestJob(name string, threads int, rate units.Rate) *Job {
	p := workload.Profile{
		Name:    name,
		Threads: threads,
		Phases:  []workload.Phase{{Duration: units.Second, Demand: 10}},
	}
	j := NewJob(workload.NewApp(p, name), 1, 0)
	j.PushSample(rate)
	return j
}

// starve runs k scheduled quanta without feeding j a fresh sample.
func starve(b *BandwidthAware, k int) {
	for i := 0; i < k; i++ {
		b.Schedule(nil)
	}
}

func TestStaleQuantaBookkeeping(t *testing.T) {
	j := staleTestJob("a", 1, 5)
	if j.StaleQuanta() != 0 {
		t.Fatalf("fresh job stale = %d", j.StaleQuanta())
	}
	j.noteScheduled() // quantum 1 begins
	j.settleQuantum() // quantum 1 ended sampleless
	j.noteScheduled()
	j.settleQuantum()
	if j.StaleQuanta() != 2 {
		t.Errorf("stale = %d, want 2", j.StaleQuanta())
	}
	j.settleQuantum() // idempotent when the job did not run
	if j.StaleQuanta() != 2 {
		t.Errorf("settling an idle quantum counted: %d", j.StaleQuanta())
	}
	j.PushSample(4)
	if j.StaleQuanta() != 0 {
		t.Errorf("PushSample did not clear staleness: %d", j.StaleQuanta())
	}
	j.noteScheduled()
	j.settleQuantum()
	j.ResetSamples()
	if j.StaleQuanta() != 0 || j.window.Len() != 0 {
		t.Errorf("ResetSamples left state: stale=%d samples=%d", j.StaleQuanta(), j.window.Len())
	}
}

// Without Params.StaleQuanta nothing changes: estimates are held
// forever and noteScheduled is never invoked by the policy.
func TestStaleFallbackDisabledByDefault(t *testing.T) {
	b := tuned(t, "window", Params{})
	if b.staleK != 0 {
		t.Fatalf("fallback enabled by default: K=%d", b.staleK)
	}
	j := staleTestJob("a", 2, 6)
	b.Add(j)
	for i := 0; i < 50; i++ {
		b.Schedule(nil)
	}
	if j.StaleQuanta() != 0 {
		t.Errorf("disabled policy accumulated staleness: %d", j.StaleQuanta())
	}
	if b.degraded(j) {
		t.Error("job degraded with fallback disabled")
	}
}

// Once a job runs K quanta without a sample it is degraded: it no
// longer competes on its stale estimate but stays admissible in list
// order, and admission never stalls.
func TestStaleFallbackDegradesToRoundRobin(t *testing.T) {
	const k = 3
	b := tuned(t, "latest", Params{StaleQuanta: k})
	// Two 2-thread jobs: both fit together on 4 CPUs.
	a := staleTestJob("a", 2, 14)
	c := staleTestJob("c", 2, 1)
	b.Add(a)
	b.Add(c)

	// After k completed sampleless quanta (the k+1-th Schedule call
	// settles the k-th), both jobs cross the horizon.
	starve(b, k+1)
	if !b.degraded(a) || !b.degraded(c) {
		t.Fatalf("jobs not degraded after %d sampleless quanta (stale: a=%d c=%d)",
			k, a.StaleQuanta(), c.StaleQuanta())
	}

	// All-degraded selection must still admit everything that fits —
	// bandwidth-oblivious gang round-robin, never a stall.
	sel := b.Select()
	if len(sel) != 2 {
		t.Fatalf("all-degraded Select admitted %d jobs, want 2", len(sel))
	}

	// A fresh sample rehabilitates a job immediately.
	a.PushSample(12)
	if b.degraded(a) {
		t.Error("sampled job still degraded")
	}
	if !b.degraded(c) {
		t.Error("unsampled job lost degraded status")
	}
}

// Degraded jobs must not poison the fitness pass: a degraded
// high-estimate job is placed after fresh jobs, in list order.
func TestStaleFallbackPrefersFreshJobs(t *testing.T) {
	const k = 2
	b := tuned(t, "latest", Params{StaleQuanta: k})
	head := staleTestJob("head", 2, 10)
	stale := staleTestJob("stale", 1, 1000) // absurd stale estimate
	fresh := staleTestJob("fresh", 1, 5)
	b.Add(head)
	b.Add(stale)
	b.Add(fresh)

	// Starve only "stale": re-sample the others each quantum.
	for i := 0; i < k+1; i++ {
		b.Schedule(nil)
		head.PushSample(10)
		fresh.PushSample(5)
	}
	if !b.degraded(stale) || b.degraded(fresh) {
		t.Fatalf("degradation targeting wrong job (stale=%d fresh=%d)",
			stale.StaleQuanta(), fresh.StaleQuanta())
	}

	sel := b.Select()
	// 4 CPUs: the list head (2 threads) is admitted by default, then
	// the fresh 1-thread job by fitness, then the degraded job fills
	// the last CPU round-robin style — it is not scheduled *on* its
	// garbage estimate, but it is not starved either.
	if len(sel) != 3 {
		t.Fatalf("selected %d jobs, want 3", len(sel))
	}
	order := []*Job{}
	for _, j := range sel {
		if j == stale || j == fresh {
			order = append(order, j)
		}
	}
	if len(order) != 2 || order[0] != fresh || order[1] != stale {
		t.Errorf("fresh job should be placed before the degraded one")
	}
}
