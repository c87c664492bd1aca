package machine

import (
	"errors"

	"busaware/internal/bus"
	"busaware/internal/units"
)

// PlanStretch hands out the quantum the last Step ran as the plan for
// running the same placements for one more quantum of length dt, when
// repeating it changes nothing. It refuses (ok false) unless:
//
//   - the last Step succeeded and nothing advanced the clock since;
//   - every micro-step of that Step asked the bus model one request
//     vector (a uniform quantum: no phase boundary, debt repayment or
//     barrier changed a demand mid-quantum);
//   - placements and dt are that Step's placements (at least one) and
//     length;
//   - no placed thread owes debt, spins at a barrier or is done;
//   - every thread's current request is bitwise the one it asked in
//     the last micro-step.
//
// Why a repeated quantum reproduces the plan exactly:
//
//   - The same placements right after Step mean no migration, no
//     pollution debt and no context switch.
//   - The requests are unchanged, and the bus model is deterministic
//     per vector, so it grants the same speeds. A repeated quantum
//     therefore reproduces every recorded value: each thread's
//     per-micro-step solo advances, transaction count, speed, rate
//     and request, and the quantum's utilization, served rate and
//     stretch.
//   - On the sampling side (internal/sim), every monitor is polled at
//     the end of every stepped quantum, idle applications included, and
//     resynced after every leap. So the probe's poll spans exactly one
//     quantum, and its delta is the recorded transaction count. With
//     faults off, which leaping already requires, the sample a job just
//     received is the one each replayed quantum pushes.
//   - A record is valid only until the machine's next Step or clock
//     advance: Step clears it on entry and sets it only once the
//     quantum has run, so a Step that returns an error leaves no
//     half-written record.
//
// The plan covers one quantum. How many quanta may repeat it before a
// phase boundary, completion or barrier changes a request inside one
// is the caller's bound to keep.
//
// A thread with no migration penalty can migrate in a uniform quantum.
// A repeated quantum does not migrate, so the plan reports no
// migrations or context switches and clears each thread's Migrated;
// the caller has consumed the Step's own result by then. The plan
// aliases the Step's scratch, valid until the next Step.
func (m *Machine) PlanStretch(placements []Placement, dt units.Time) (StepResult, bool) {
	r := &m.last
	if !m.uniform || dt != r.Elapsed || len(placements) == 0 || len(placements) != len(r.Threads) {
		return StepResult{}, false
	}
	for i, p := range placements {
		ts := &r.Threads[i]
		if p.Thread != ts.Thread || p.CPU != ts.CPU {
			return StepResult{}, false
		}
		if p.Thread.Debt() > 0 || p.Thread.AtBarrier() || p.Thread.Done() {
			return StepResult{}, false
		}
		if d, f := p.Thread.Request(); !sameRequest(bus.Request{Demand: d, StallFrac: f}, ts.Req) {
			return StepResult{}, false
		}
	}
	r.Migrations, r.ContextSwitches = 0, 0
	for i := range r.Threads {
		r.Threads[i].Migrated = false
	}
	return *r, true
}

// Advance moves the clock k quanta of length dt forward without
// stepping anything: quanta in which every processor idles, or quanta
// the caller replays from PlanStretch, whose thread progress and
// counters it applies itself. The clock is integral, so k quanta batch
// exactly. Advance ends the last Step's record.
func (m *Machine) Advance(dt units.Time, k int) error {
	m.uniform = false
	if dt <= 0 {
		return errors.New("machine: non-positive advance duration")
	}
	if k > 0 {
		m.now += units.Time(k) * dt
	}
	return nil
}
