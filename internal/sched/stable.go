package sched

// steadyUnderRepush reports whether pushing the job's latest sample
// again would leave the estimate read by est bitwise unchanged. The
// sample window must be saturated with bitwise-equal values: a partial
// window changes its divisor on every push, and an evicted unequal
// value shifts the recomputed mean. The EWMA additionally needs its
// own algebraic fixed point, which floating-point rounding does not
// grant automatically.
func (j *Job) steadyUnderRepush(est Estimator) bool {
	v, ok := j.window.Steady()
	if !ok {
		return false
	}
	if est == EstEWMA && j.ewma != nil {
		if !j.ewma.Initialized() {
			return false
		}
		val := j.ewma.Value()
		if j.ewma.Alpha*v+(1-j.ewma.Alpha)*val != val {
			return false
		}
	}
	return true
}

// Stable implements Scheduler. The decision is a guaranteed replay
// when (a) the previous quantum selected every job on the list, so the
// end-of-quantum rotation preserved list order, (b) every later Select
// reads estimates that pick the jobs the next one picks, and (c) the
// next Select picks the jobs in the order the last one did. The
// samples the last quantum pushed may have moved the estimates that
// Select read, so (c) runs Select once more on the current ones: the
// order decides the placements, and with them the bus request vector
// the machine solves. Staleness bookkeeping must also be quiescent: a
// pending staleness transition could demote a job to round-robin
// admission mid-stretch, and with no job stale none is degraded.
//
// (b) holds in three ways. The oracle reads live thread demands, whose
// constancy is part of the engine's own leap preconditions, and gang
// round-robin (EstNone) reads nothing. A sampled estimator holds (b)
// when every job's estimate is a fixed point under re-pushing its
// latest sample, so every later Select reads the estimates the next
// one reads. And any estimator holds (b) when the selection is
// estimate-blind: no traversal step after the head had two candidates
// to rank (b.blind, recorded by the Select of (c)). The proof of the
// last case:
//
//   - Select's candidate set at a step is every unchosen job with
//     0 < n <= freeCPUs that is not degraded. It reads thread counts,
//     degradation flags, list order and the earlier steps' picks,
//     never an estimate. The head is the first job in list order that
//     fits, so it is picked without an estimate too. Estimates enter
//     only allocatedBW and, through it, remaining, abbwPerProc,
//     allocAvg, the guard's fits test and the fitness values.
//   - A lone candidate is picked whatever its estimate. Estimates are
//     finite: a window or EWMA of finite samples (each a rate over a
//     positive time, split over at least one thread), the oracle's
//     thread demands, or 0. So every fitness value is in (0, 1000],
//     above the -1 that bestFit and fallbackFit start at. Without the
//     guard the candidate fits and becomes best. Under the guard, if it
//     fails the fits test it becomes fallback, and best < 0 falls back
//     to it. Either way it is picked, before rrPick is consulted.
//   - By induction over the steps, every Select whose list order,
//     thread counts and degradation flags equal those of (c)'s Select
//     sees the same candidate sets and makes the same picks, in the
//     same order, on any estimates. Over a leap those inputs hold:
//     (a) keeps the order, the engine keeps every thread running, and
//     each selected job is sampled every quantum, so it never goes
//     stale.
//   - Schedule lays the selection out with assignCPUsInto, which
//     reads the selection order, finished threads and affinity, never
//     an estimate.
//
// So the placements repeat while the estimates drift, and the drift
// is the PushSamples the engine commits after the leap.
func (b *BandwidthAware) Stable() bool {
	if !b.lastAllSelected {
		return false
	}
	for _, j := range b.list.all() {
		if j.StaleQuanta() != 0 || j.awaitingSample {
			return false
		}
	}
	sel := b.Select()
	if len(sel) != b.list.len() {
		return false
	}
	for i, j := range sel {
		if j.rank != i {
			return false
		}
	}
	if b.blind || b.estimator == EstOracle || b.estimator == EstNone {
		return true
	}
	for _, j := range b.list.all() {
		if !j.steadyUnderRepush(b.estimator) {
			return false
		}
	}
	return true
}

// Stable implements Scheduler. The Linux baseline is never a fixed
// point: per-thread counters decrement every quantum until an epoch
// boundary refills them and reshuffles the runqueue from the seeded
// RNG, so consecutive quanta are essentially never replays. Linux runs
// always step quantum by quantum.
func (l *Linux) Stable() bool { return false }

// Stable implements Scheduler. The rotation pointer advances by the
// number of queue entries scanned, so placements repeat only when one
// sweep covers the whole queue — every thread fits on the machine at
// once. Finished threads disqualify the stretch: a Done thread is
// skipped without consuming a processor, shifting the CPU assignment
// of its successors relative to the quantum that still ran it.
func (r *RoundRobin) Stable() bool {
	if len(r.queue) == 0 || len(r.queue) > r.numCPUs {
		return false
	}
	for _, t := range r.queue {
		if t.Done() {
			return false
		}
	}
	return true
}

// Stable implements Scheduler. The subset search is deterministic
// given the thread demands (part of the engine's own preconditions),
// so the decision repeats when the previous quantum ran every job:
// rotation preserved list order and every waiting-time weight was
// reset to zero. Any parked job ages each quantum, changing the
// scores.
func (o *Optimal) Stable() bool { return o.lastAllSelected }
