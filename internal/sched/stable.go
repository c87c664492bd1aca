package sched

// StretchStable is the per-policy stability contract consumed by the
// event-driven simulation engine (internal/sim). Stable reports
// whether the policy's next Schedule call is guaranteed to reproduce
// the previous one bit for bit — the same jobs selected in the same
// order, hence the same placements — provided the world outside the
// scheduler also holds still: no job is added or removed, every
// selected job receives the same bandwidth sample it received last
// quantum, and thread demands do not change. The engine verifies those
// outside conditions itself; Stable answers only for scheduler-internal
// state (list rotation, estimator drift, aging counters, RNG draws).
//
// A policy that cannot make the guarantee must return false; the
// engine then falls back to per-quantum stepping, which is always
// correct.
type StretchStable interface {
	Stable() bool
}

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

// Stable implements StretchStable. The decision is a guaranteed replay
// when (a) the previous quantum selected every job on the list, so the
// end-of-quantum rotation preserved list order, (b) every job's
// estimate is a fixed point under re-pushing its latest sample, so
// every later Select reads the estimates the next one reads, and (c)
// the next Select picks the jobs in the order the last one did. The
// samples the last quantum pushed may have moved the estimates that
// Select read, so (c) runs Select once more on the current ones: the
// order decides the placements, and with them the bus request vector
// the machine solves. Staleness bookkeeping must also be quiescent: a
// pending staleness transition could demote a job to round-robin
// admission mid-stretch. Condition (b) is skipped for the two
// estimators that read no samples: the oracle reads live thread
// demands, whose constancy is part of the engine's own leap
// preconditions, and gang round-robin (EstNone) reads nothing, so list
// order is its only mutable input.
func (b *BandwidthAware) Stable() bool {
	if !b.lastAllSelected {
		return false
	}
	sampled := b.estimator != EstOracle && b.estimator != EstNone
	for _, j := range b.list.all() {
		if j.StaleQuanta() != 0 || j.awaitingSample {
			return false
		}
		if sampled && !j.steadyUnderRepush(b.estimator) {
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
	return true
}

// Stable implements StretchStable. The Linux baseline is never a fixed
// point: per-thread counters decrement every quantum until an epoch
// boundary refills them and reshuffles the runqueue from the seeded
// RNG, so consecutive quanta are essentially never replays. Linux runs
// always step quantum by quantum.
func (l *Linux) Stable() bool { return false }

// Stable implements StretchStable. The rotation pointer advances by
// the number of queue entries scanned, so placements repeat only when
// one sweep covers the whole queue — every thread fits on the machine
// at once. Finished threads disqualify the stretch: a Done thread is
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

// Stable implements StretchStable. The subset search is deterministic
// given the thread demands (part of the engine's own preconditions),
// so the decision repeats when the previous quantum ran every job:
// rotation preserved list order and every waiting-time weight was
// reset to zero. Any parked job ages each quantum, changing the
// scores.
func (o *Optimal) Stable() bool { return o.lastAllSelected }
