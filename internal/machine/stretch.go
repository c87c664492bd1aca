package machine

import (
	"busaware/internal/bus"
	"busaware/internal/perfctr"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// StretchThread is one placement's precomputed per-quantum arithmetic
// within a StretchPlan.
type StretchThread struct {
	Thread *workload.Thread
	CPU    int
	// SoloPerSub is the solo-equivalent progress each micro-step grants
	// (wall µs × contended speed), in micro-step order — bitwise the
	// first argument Step would pass to Thread.Advance. All entries but
	// possibly the last are identical.
	SoloPerSub []float64
	// Speed and Rate are the exact ThreadStep aggregates a Step call
	// over this quantum would report, accumulated with the same
	// micro-step summation order.
	Speed float64
	Rate  units.Rate
	// CountersPerQ is the per-quantum virtual-counter increment of
	// each event, summed over the quantum's micro-steps exactly as Step
	// sums it. Counter addition is modular, hence associative, so k
	// replayed quanta batch exactly as k× these.
	CountersPerQ [perfctr.NumEvents]uint64
	// Req is the bus request the plan was computed for. Step re-reads
	// demands every micro-step, so the plan is exact only while each
	// thread's request stays bitwise equal to this.
	Req bus.Request
}

// StretchPlan captures everything needed to replay one uniform quantum
// — a quantum in which every micro-step sees the same demand vector,
// hence the same bus grants — any number of times. PlanStretch fills
// it; the plan aliases machine-owned scratch and is valid until the
// next PlanStretch call on the same Machine.
type StretchPlan struct {
	Quantum units.Time
	Steps   int
	Threads []StretchThread
	// Exact per-quantum StepResult aggregates a Step call would report.
	MeanUtilization float64
	MeanServed      units.Rate
	Outcome         bus.Outcome
}

// PlanStretch precomputes the replay arithmetic for running the given
// placements one more quantum of length dt, under the preconditions
// that make the quantum a pure replay of machine state:
//
//   - every placed thread occupies the processor it already holds
//     (no migration, no cache-pollution debt, no context switch);
//   - no placed thread owes debt, spins at a barrier, or has finished
//     (any of those changes its bus demand or the next schedule);
//   - the demand vector is assumed constant for the whole quantum —
//     the caller must bound the replay horizon so no phase boundary,
//     barrier or debt event lands inside it.
//
// ok is false when a precondition fails; the caller then falls back to
// the stepped path. The returned plan aliases machine scratch and is
// valid until the next PlanStretch call.
func (m *Machine) PlanStretch(placements []Placement, dt units.Time) (*StretchPlan, bool) {
	if dt <= 0 || len(placements) == 0 || len(placements) > m.cfg.NumCPUs {
		return nil, false
	}
	for _, p := range placements {
		if p.Thread == nil || p.CPU < 0 || p.CPU >= m.cfg.NumCPUs {
			return nil, false
		}
		if m.lastThread[p.CPU] != p.Thread {
			return nil, false
		}
		if last, ran := m.lastCPU[p.Thread]; !ran || last != p.CPU {
			return nil, false
		}
		if p.Thread.Debt() > 0 || p.Thread.AtBarrier() || p.Thread.Done() {
			return nil, false
		}
	}

	// Core occupancy for SMT resource sharing, as in Step.
	var busyCore []int
	if m.cfg.SMTSiblings == 2 {
		busyCore = m.busyCore
		for i := range busyCore {
			busyCore[i] = 0
		}
		for _, p := range placements {
			busyCore[p.CPU/2]++
		}
	}

	steps := int((dt + m.cfg.MicroStep - 1) / m.cfg.MicroStep)
	if steps < 1 {
		steps = 1
	}
	plan := &m.plan
	plan.Quantum = dt
	plan.Steps = steps
	// Recycle the scratch plan: thread slots for every CPU, and one
	// backing array carved into the slots' SoloPerSub, so probing for a
	// leap allocates only on a Machine's first plan (or a longer
	// quantum), not per slot and per micro-step.
	if cap(plan.Threads) < len(placements) {
		plan.Threads = make([]StretchThread, 0, m.cfg.NumCPUs)
	}
	if need := m.cfg.NumCPUs * steps; cap(m.soloPerSub) < need {
		m.soloPerSub = make([]float64, need)
	}
	plan.Threads = plan.Threads[:len(placements)]
	for i, p := range placements {
		plan.Threads[i] = StretchThread{
			Thread:     p.Thread,
			CPU:        p.CPU,
			SoloPerSub: m.soloPerSub[i*steps : i*steps : (i+1)*steps],
		}
	}

	// One bus allocation covers every micro-step: the demand vector is
	// constant by precondition, and the model is deterministic for
	// identical inputs (memoized or not), so each micro-step of a real
	// Step would receive bitwise these grants.
	reqs := m.reqs[:len(placements)]
	for i, p := range placements {
		reqs[i].Demand, reqs[i].StallFrac = p.Thread.Request()
		plan.Threads[i].Req = reqs[i]
	}
	grants, out := m.allocate(reqs)

	// Replicate Step's micro-step accumulation exactly: same formulas,
	// same order, so Speed/Rate/MeanUtilization come out bitwise equal
	// to what a Step over this quantum would report.
	remaining := dt
	var utilSum float64
	var servedSum units.Rate
	for s := 0; s < steps; s++ {
		sub := m.cfg.MicroStep
		if sub > remaining {
			sub = remaining
		}
		if sub <= 0 {
			break
		}
		remaining -= sub
		for i, p := range placements {
			g := grants[i]
			speed := g.Speed
			if m.cfg.SMTSiblings == 2 && busyCore[p.CPU/2] > 1 {
				speed *= m.cfg.SMTEfficiency
			}
			wall := float64(sub)
			t := &plan.Threads[i]
			t.SoloPerSub = append(t.SoloPerSub, wall*speed)
			p.Thread.AccrueCounters(&t.CountersPerQ, wall, g.Rate*units.Rate(speed/maxf(g.Speed, 1e-12)))
			w := float64(sub) / float64(dt)
			t.Speed += speed * w
			t.Rate += g.Rate * units.Rate(w*speed/maxf(g.Speed, 1e-12))
		}
		utilSum += out.Utilization
		servedSum += out.Served
	}
	plan.MeanUtilization = utilSum / float64(steps)
	plan.MeanServed = servedSum / units.Rate(steps)
	plan.Outcome = out
	return plan, true
}

// CommitStretch advances the machine's clock and per-CPU busy time for
// k replayed quanta in O(placements): both are integral microseconds,
// so k quanta batch exactly. Thread progress and counters are advanced
// by the caller's replay loop; occupancy state (lastCPU, lastThread)
// is untouched because a replayed quantum changes neither.
func (m *Machine) CommitStretch(p *StretchPlan, k int) {
	if k <= 0 {
		return
	}
	for i := range p.Threads {
		m.busyTime[p.Threads[i].CPU] += units.Time(k) * p.Quantum
	}
	m.now += units.Time(k) * p.Quantum
}

// IdleN advances time by k idle quanta of length dt without running
// anything — the O(1) batched form of k Idle calls.
func (m *Machine) IdleN(dt units.Time, k int) error {
	if dt <= 0 {
		return errIdleDuration
	}
	if k <= 0 {
		return nil
	}
	m.now += units.Time(k) * dt
	return nil
}
