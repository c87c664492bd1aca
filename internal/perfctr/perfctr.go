// Package perfctr virtualizes the hardware performance-monitoring
// counter the paper's CPU manager reads through Mikael Pettersson's
// Linux perfctr driver: BUS_TRAN_ANY, the Pentium 4 IOQ/FSB "bus
// transactions, any" event, the one event the paper sampled.
//
// The simulator increments each thread's counter as it models
// execution; the scheduling layer reads it exactly the way the
// user-level CPU manager did on real hardware — by polling per-thread
// virtual counters twice per scheduling quantum, accumulating the
// per-thread values into per-application totals, and deriving
// transaction *rates* from successive samples.
//
// Hardware realism kept on purpose: counters are W bits wide (40 on
// the Pentium 4 family) and wrap; Monitor corrects a single wrap
// between polls, as the real run-time library had to.
//
// Counters and monitors take no lock. A simulation run is one
// goroutine: the machine writes a thread's counter and the run's
// monitors read it, in turn, on that goroutine, and nothing else
// touches them.
package perfctr

import "busaware/internal/units"

// CounterBits is the hardware counter width; Pentium 4 PMCs are 40 bits.
const CounterBits = 40

// counterMask keeps values within the hardware width.
const counterMask = (uint64(1) << CounterBits) - 1

// Counters is one thread's virtual BUS_TRAN_ANY counter. Not safe for
// concurrent use (see the package doc).
type Counters struct {
	value uint64
}

// Add increments the counter by n, wrapping at the hardware width.
// Masked addition is associative, so committing summed increments
// with one Add leaves the same value as adding each part.
func (c *Counters) Add(n uint64) { c.value = (c.value + n) & counterMask }

// Read returns the counter's current value.
func (c *Counters) Read() uint64 { return c.value }

// Sample is a point-in-time reading of one counter.
type Sample struct {
	At    units.Time
	Value uint64
}

// Delta returns later - earlier, correcting one hardware wrap.
func Delta(earlier, later Sample) uint64 {
	a, b := earlier.Value, later.Value
	if b >= a {
		return b - a
	}
	return (counterMask - a) + b + 1
}

// FaultHook lets a fault-injection layer perturb counter sampling.
// DropCounterSample fails one poll outright (the driver read was
// lost); PerturbCounterRate adds measurement noise to the derived
// rate. internal/faults.Injector implements it; a nil hook (or a hook
// that never fires) leaves the monitor's behaviour unchanged.
type FaultHook interface {
	DropCounterSample() bool
	PerturbCounterRate(float64) float64
}

// Monitor derives rates from successive polls of one Counters, the
// way the CPU manager's run-time library sampled each thread.
type Monitor struct {
	ctr  *Counters
	last Sample
	init bool
	hook FaultHook
}

// NewMonitor starts monitoring ctr.
func NewMonitor(ctr *Counters) *Monitor {
	return &Monitor{ctr: ctr}
}

// SetFaultHook attaches a fault-injection hook to subsequent polls.
// Pass nil to detach.
func (m *Monitor) SetFaultHook(h FaultHook) { m.hook = h }

// Poll reads the counter at simulated time now and returns the bus
// transaction rate (transactions per usec) since the previous poll.
// The first poll establishes the baseline and returns a zero rate with
// ok == false. A poll with no elapsed time also returns ok == false.
//
// A poll dropped by the fault hook also returns ok == false and keeps
// the previous baseline, so the reading goes stale rather than lost:
// the next successful poll spans the gap and averages the rate over
// the whole elapsed interval, exactly as a missed perfctr read would
// on real hardware.
func (m *Monitor) Poll(now units.Time) (rate float64, ok bool) {
	if m.hook != nil && m.hook.DropCounterSample() {
		return 0, false
	}
	s := Sample{At: now, Value: m.ctr.Read()}
	if !m.init {
		m.last = s
		m.init = true
		return 0, false
	}
	elapsed := now - m.last.At
	if elapsed <= 0 {
		return 0, false
	}
	rate = float64(Delta(m.last, s)) / float64(elapsed)
	if m.hook != nil {
		rate = m.hook.PerturbCounterRate(rate)
	}
	m.last = s
	return rate, true
}

// Resync replaces the monitor's baseline with the counter's current
// value at simulated time now — exactly the state a successful Poll
// would have left behind — without deriving a rate. The event-driven
// engine leaps over stretches during which every per-quantum Poll
// result is known in advance (constant counter deltas); after batching
// the counter increments it resyncs each monitor so the next real Poll
// spans one quantum, not the whole stretch.
func (m *Monitor) Resync(now units.Time) {
	m.last = Sample{At: now, Value: m.ctr.Read()}
	m.init = true
}
