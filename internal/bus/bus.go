// Package bus models the shared front-side bus of the paper's 4-way
// Xeon SMP: a single split-transaction bus with bounded sustained
// throughput whose per-transaction latency inflates under load.
//
// # Model
//
// Each running thread i is characterized by its solo bus demand d_i
// (transactions/usec when it runs alone) and its memory-stall fraction
// f_i (share of its solo runtime spent waiting for bus transactions).
// When a set of threads shares the bus, every transaction's latency is
// stretched by a common factor X >= 1, so thread i progresses at
//
//	speed_i = 1 / ((1 - f_i) + f_i*X)
//
// of its solo pace and issues an actual rate g_i = d_i * speed_i. The
// bus is a closed queueing system: the stretch settles at the unique
// fixed point where the M/M/1-flavoured delay curve evaluated at the
// resulting utilization reproduces X itself,
//
//	X = 1 + k * rho^g/(1-rho),  rho = (sum_i g_i) / C_eff
//
// with effective capacity C_eff = C * (1 - a*(n-1)) degraded by
// arbitration among n active bus masters. The fixed point exists and
// is unique because served throughput falls monotonically in X while
// the delay curve rises monotonically in utilization; we find it by
// bisection.
//
// The constants below are the paper machine's bus, calibrated against
// internal/workload's profiles so the model reproduces the paper's
// Section 3 measurements: a CPU-bound thread (f~0) is unharmed even on
// a saturated bus, while a memory-bound application sharing the bus
// with two copies of the BBMA microbenchmark slows down 2x-3x (Figure
// 1B). The capacity C is units.SustainedBusRate, the 29.5 trans/usec
// STREAM sustained on that machine.
//
// # Memoization
//
// A Model remembers the equilibria it solves in a fixed-size table
// keyed on the exact bits of the request vector, so a repeated vector
// replays the first solve's bits without solving again, and neither a
// hit nor a warm miss allocates. The bus has no configuration, so a
// model's table stays exact for every later caller: internal/machine
// pools models across simulation runs.
package bus

import (
	"math"
	"sync"

	"busaware/internal/units"
)

const (
	// arbPenalty is the fractional capacity lost per additional bus
	// master beyond the first, modelling arbitration overhead. The
	// paper observes that "contention and arbitration contribute to
	// bandwidth consumption" before nominal saturation.
	arbPenalty float64 = 0.004

	// minCapacityFrac floors the arbitration degradation so capacity
	// never collapses entirely.
	minCapacityFrac float64 = 0.5

	// queueFactor is k in the delay curve 1 + k*rho^g/(1-rho).
	queueFactor float64 = 0.05

	// curveExponent is g in the delay curve. A large exponent keeps the
	// curve flat at moderate utilization — per-thread demands are
	// calibrated from *solo measured* runs, which already include the
	// application's self-contention — and makes it bite only near
	// saturation, which is where the paper's machine degraded.
	curveExponent float64 = 6

	// maxStretch bounds the latency inflation searched for; demand far
	// beyond capacity saturates at this stretch.
	maxStretch float64 = 10000

	// masterThreshold is the demand (trans/usec) above which a thread
	// counts as a bus master for arbitration purposes. nBBMA-like
	// threads (0.0037 trans/usec) should not.
	masterThreshold units.Rate = 0.25

	// unfairness models the arbitration advantage of streaming threads:
	// a thread that always has the next miss queued (BBMA) wins
	// back-to-back arbitration rounds, while threads with dependent
	// misses lose turns. A thread's latency stretch is amplified by
	// 1 + unfairness*(1 - d/dmax), so the lightest co-runner suffers
	// the most relative delay — the effect behind the paper's 2.5-2.8x
	// victim slowdowns next to BBMA.
	unfairness float64 = 0.75
)

// Request describes one running thread's bus behaviour.
type Request struct {
	// Demand is the thread's solo transaction rate, trans/usec.
	Demand units.Rate
	// StallFrac is the fraction of solo runtime spent stalled on bus
	// transactions, in [0,1].
	StallFrac float64
}

// Grant is the bus model's answer for one thread.
type Grant struct {
	// Speed is the thread's progress rate as a fraction of solo speed,
	// in (0,1].
	Speed float64
	// Rate is the transaction rate actually achieved, trans/usec.
	Rate units.Rate
}

// Outcome summarizes one allocation round.
type Outcome struct {
	// Served is the sum of achieved rates.
	Served units.Rate
	// Utilization is Served over the capacity left after arbitration.
	Utilization float64
	// Stretch is the equilibrium latency inflation X.
	Stretch float64
}

// Model evaluates bus contention for co-scheduled thread sets.
//
// Equilibria are memoized: demands are piecewise-constant across
// workload phases, so a run presents few distinct request vectors, and
// each one's fixed point is solved once and replayed bit-for-bit from
// a fixed-size table keyed on the exact float64 bits of the requests
// (see table). The bus has no configuration, so the request vector is
// the whole key: an equilibrium a model solved for one run holds for
// every later run that reuses the model. Safe for concurrent use.
type Model struct {
	// bracketable reports whether solveStretch may certify a bracket:
	// the bracketable constant, which tests clear to exercise the
	// uncertified path on every architecture.
	bracketable bool

	mu    sync.Mutex
	table table
}

// New builds a Model of the paper machine's bus.
func New() *Model {
	return &Model{bracketable: bracketable}
}

// Allocate computes the equilibrium grants for the given co-scheduled
// thread set. A nil or empty request set returns no grants and an idle
// outcome. Requests with non-positive demand receive full speed.
func (m *Model) Allocate(reqs []Request) ([]Grant, Outcome) {
	return m.AllocateInto(nil, reqs)
}

// AllocateInto is Allocate with a caller-supplied grant buffer: dst's
// capacity is reused when possible, so a steady-state caller (the
// machine's micro-step loop) allocates nothing. The returned slice has
// exactly len(reqs) grants and aliases dst's backing array when it
// fits.
func (m *Model) AllocateInto(dst []Grant, reqs []Request) ([]Grant, Outcome) {
	out := Outcome{Stretch: 1}
	if len(reqs) == 0 {
		return nil, out
	}

	m.mu.Lock()
	s := m.table.slotFor(reqs)
	if s.holds(reqs) {
		grants := append(dst[:0], s.grants...)
		out = s.outcome
		m.mu.Unlock()
		return grants, out
	}

	masters := 0
	var offered units.Rate
	for _, r := range reqs {
		if r.Demand > masterThreshold {
			masters++
		}
		if r.Demand > 0 {
			offered += r.Demand
		}
	}
	ceff := m.effectiveCapacity(masters)
	dmax := maxDemand(reqs)
	x := m.solveStretch(reqs, ceff, dmax, offered)
	out.Stretch = x

	grants := dst[:0]
	var served units.Rate
	for _, r := range reqs {
		sp := m.speedAt(r, x, dmax)
		g := Grant{Speed: sp, Rate: units.Rate(math.Max(0, float64(r.Demand))) * units.Rate(sp)}
		grants = append(grants, g)
		served += g.Rate
	}
	out.Served = served
	out.Utilization = float64(served / ceff)
	s.store(reqs, grants, out)
	m.mu.Unlock()
	return grants, out
}

// effectiveCapacity applies the arbitration penalty for n masters.
func (m *Model) effectiveCapacity(masters int) units.Rate {
	if masters <= 1 {
		return units.SustainedBusRate
	}
	frac := 1 - arbPenalty*float64(masters-1)
	if frac < minCapacityFrac {
		frac = minCapacityFrac
	}
	return units.SustainedBusRate * units.Rate(frac)
}

// maxDemand returns the largest positive demand among reqs.
func maxDemand(reqs []Request) units.Rate {
	var m units.Rate
	for _, r := range reqs {
		if r.Demand > m {
			m = r.Demand
		}
	}
	return m
}

// speedAt evaluates a thread's progress fraction at base stretch x,
// amplifying the stretch for threads lighter than the heaviest
// co-runner (arbitration unfairness).
func (m *Model) speedAt(r Request, x float64, dmax units.Rate) float64 {
	if r.Demand <= 0 {
		return 1
	}
	f, w := m.stallWeight(r, dmax)
	xt := 1 + (x-1)*w
	return 1 / ((1 - f) + f*xt)
}

// stallWeight returns r's stall fraction clamped to [0, 1] and the
// weight 1 + unfairness*(1 - d/dmax) that amplifies its stretch.
func (m *Model) stallWeight(r Request, dmax units.Rate) (f, w float64) {
	f = r.StallFrac
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	w = 1
	if dmax > 0 {
		w = 1 + unfairness*(1-float64(r.Demand/dmax))
	}
	return f, w
}

// servedAt sums the achieved transaction rates at stretch x.
func (m *Model) servedAt(reqs []Request, x float64, dmax units.Rate) units.Rate {
	var s units.Rate
	for _, r := range reqs {
		if r.Demand <= 0 {
			continue
		}
		s += r.Demand * units.Rate(m.speedAt(r, x, dmax))
	}
	return s
}

// delayCurve evaluates the open-loop latency inflation at utilization
// rho. The delay grows without bound as rho approaches 1 and is +Inf
// from there on: a bus cannot serve more than its effective capacity,
// so the bisection settles at an equilibrium with rho < 1 or pins the
// stretch at maxStretch. A curve held finite near rho = 1 would cap
// the stretch and let heavy, low-stall request sets settle above
// capacity.
func (m *Model) delayCurve(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return 1 + queueFactor*math.Pow(rho, curveExponent)/(1-rho)
}
