package sched

import (
	"busaware/internal/machine"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// RoundRobin is the simplest per-thread baseline: a circular queue of
// threads, numCPUs of which run each quantum, with no affinity, no
// gangs and no bandwidth awareness. It bounds the schedulers from
// below and exposes the cost of ignoring cache affinity entirely.
// It runs at the Linux baseline's quantum.
type RoundRobin struct {
	numCPUs int
	queue   []*workload.Thread
	next    int
	// placements is Schedule's result buffer, reused every call.
	placements []machine.Placement
}

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "RR" }

// Quantum implements Scheduler.
func (r *RoundRobin) Quantum() units.Time { return LinuxQuantum }

// Add implements Scheduler.
func (r *RoundRobin) Add(j *Job) {
	for _, t := range j.App.Threads {
		r.queue = append(r.queue, t)
	}
}

// Remove implements Scheduler.
func (r *RoundRobin) Remove(j *Job) {
	kept := r.queue[:0]
	for _, t := range r.queue {
		if t.App != j.App {
			kept = append(kept, t)
		}
	}
	r.queue = kept
	if r.next >= len(r.queue) {
		r.next = 0
	}
}

// Schedule implements Scheduler.
func (r *RoundRobin) Schedule(aff Affinity) []machine.Placement {
	if len(r.queue) == 0 {
		return nil
	}
	placements := r.placements[:0]
	cpu := 0
	scanned := 0
	for cpu < r.numCPUs && scanned < len(r.queue) {
		t := r.queue[r.next]
		r.next = (r.next + 1) % len(r.queue)
		scanned++
		if t.Done() {
			continue
		}
		placements = append(placements, machine.Placement{Thread: t, CPU: cpu})
		cpu++
	}
	r.placements = placements
	return placements
}
