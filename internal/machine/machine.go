// Package machine models the paper's experimental platform: a
// dedicated 4-processor SMP (Hyperthreaded Xeons with hyperthreading
// disabled — the perfctr driver of the day could not virtualize
// counters for sibling threads) with per-processor 256KB L2 caches and
// one shared front-side bus.
//
// The machine executes placements: for each time slice the scheduler
// says which thread runs on which processor, and the machine advances
// every placed thread at the speed the bus model grants it, maintains
// cache-affinity state, charges migration costs, and accumulates each
// thread's virtual bus-transaction counter.
//
// A machine's bus model outlives the machine: New takes one from a
// pool, and Release hands it back with the equilibria it solved, for
// the next machine to replay (the bus has no configuration, so the
// request vector is the whole key and a remembered equilibrium is
// exact on every machine). A pool rather than a package-wide table:
// the garbage collector empties it, so no model survives two
// collections.
package machine

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"busaware/internal/bus"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Config describes the machine: its processor count and whether the
// processors are SMT siblings. Everything else is the paper machine's
// calibration, fixed in code: the bus is bus.New's, and the constants
// below set the micro-step, the cache-pollution charge and the SMT
// sibling speed.
type Config struct {
	// NumCPUs is the logical processor count (4 on the paper's
	// machine).
	NumCPUs int
	// SMT enables simultaneous multithreading: logical processors 2i
	// and 2i+1 share physical core i, so NumCPUs must be even. The
	// paper disabled hyperthreading (the perfctr driver of 2003 could
	// not virtualize counters for sibling threads) and named SMT as
	// future work.
	SMT bool
}

const (
	// microStep subdivides each Step so phase changes and migration
	// debt repayment inside a slice are resolved with reasonable
	// fidelity.
	microStep units.Time = 10 * units.Millisecond
	// pollutionFrac is the fraction of a thread's migration penalty
	// charged when it resumes on its own processor after a *different*
	// thread ran there in between (the intervening thread evicted part
	// of its working set). Time-sharing is cheaper than migrating, but
	// not free — this is why LU CB and Water-nsqr suffer under any
	// multiprogramming in the paper.
	pollutionFrac float64 = 0.5
	// smtEfficiency is each sibling's speed multiplier when both
	// logical processors of a core are busy. Hyperthreaded Xeons of
	// the era gained ~25% aggregate throughput from a busy sibling
	// pair, i.e. ~0.62 per thread.
	smtEfficiency float64 = 0.62
)

// DefaultConfig returns the paper machine: 4 CPUs, no SMT.
func DefaultConfig() Config { return Config{NumCPUs: 4} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumCPUs < 1 {
		return fmt.Errorf("machine: %d CPUs", c.NumCPUs)
	}
	if c.SMT && c.NumCPUs%2 != 0 {
		return fmt.Errorf("machine: SMT needs an even logical CPU count, got %d", c.NumCPUs)
	}
	return nil
}

// Placement assigns one thread to one processor for a slice.
type Placement struct {
	Thread *workload.Thread
	CPU    int
}

// ThreadStep reports one placed thread's slice outcome.
type ThreadStep struct {
	Thread *workload.Thread
	CPU    int
	// Speed is the mean progress fraction over the slice.
	Speed float64
	// Rate is the mean achieved transaction rate over the slice.
	Rate units.Rate
	// Migrated reports whether this slice began with a migration.
	Migrated bool
	// SoloPerSub is the solo-equivalent progress each micro-step
	// granted (wall µs × contended speed), in micro-step order: what
	// Step passed to Thread.AdvanceWork.
	SoloPerSub []float64
	// Transactions is the slice's bus-transaction counter increment,
	// summed over its micro-steps.
	Transactions uint64
	// Req is the bus request of the slice's last micro-step.
	Req bus.Request
}

// StepResult summarizes one Step call.
type StepResult struct {
	Elapsed units.Time
	// Stretch is the bus latency stretch of the final micro-step
	// (demands may shift within the slice as phases roll over).
	Stretch float64
	// MeanUtilization averages bus utilization over micro-steps.
	MeanUtilization float64
	// MeanServed averages the served transaction rate over micro-steps.
	MeanServed units.Rate
	Migrations int
	// ContextSwitches counts processors whose occupant changed since
	// the previous slice.
	ContextSwitches int
	// Threads aliases the machine's reusable scratch, SoloPerSub
	// included: the slice is valid until the next Step call on the
	// same Machine.
	Threads []ThreadStep
}

// Machine is the simulated SMP. Not safe for concurrent use.
//
// A thread runs on one machine: the machine keeps each thread's last
// processor on the thread itself (workload.Thread.RanOn), so two
// machines must not share a thread. The shadow engine clones its
// applications for its second core.
type Machine struct {
	cfg        Config
	now        units.Time
	lastThread []*workload.Thread // per-CPU most recent occupant

	// bus is the machine's bus model, from busModels until Release.
	// busAllocate is its AllocateInto; tests wrap it to count the
	// request vectors the machine asks about.
	bus         *bus.Model
	busAllocate func(dst []bus.Grant, reqs []bus.Request) ([]bus.Grant, bus.Outcome)

	// Per-call scratch, reused across Steps so the quantum loop
	// allocates nothing after a machine's first Step (or a longer
	// quantum): the ThreadStep slice and the one array its SoloPerSub
	// slices are carved from, and each placement's per-micro-step
	// values (see Step).
	cpuUsed    []bool
	busyCore   []int
	reqs       []bus.Request
	steps      []ThreadStep
	soloPerSub []float64
	adds       []microAdds

	// The bus model's last answer: asked is the request vector it was
	// given, grants and out what it returned (see allocate).
	asked  []bus.Request
	grants []bus.Grant
	out    bus.Outcome

	// The last Step's result, which PlanStretch hands out, and whether
	// that Step asked one request vector in every micro-step. Step and
	// Advance clear uniform, so a record is never older than the clock.
	last    StepResult
	uniform bool
}

// microAdds is what one placement's micro-step adds under one bus
// answer and one micro-step length (see Step).
type microAdds struct {
	solo  float64    // solo-equivalent progress: wall µs × contended speed
	trans uint64     // bus-transaction counter increment
	speed float64    // the micro-step's share of ThreadStep.Speed
	rate  units.Rate // the micro-step's share of ThreadStep.Rate
}

// busModels holds the bus models of released machines (see the package
// doc), and builds a fresh one when it is empty.
var busModels = sync.Pool{New: func() any { return bus.New() }}

// New builds a Machine. Its bus model comes from the pool that Release
// returns models to.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model := busModels.Get().(*bus.Model)
	m := &Machine{
		cfg:         cfg,
		bus:         model,
		busAllocate: model.AllocateInto,
		lastThread:  make([]*workload.Thread, cfg.NumCPUs),
		cpuUsed:     make([]bool, cfg.NumCPUs),
		busyCore:    make([]int, (cfg.NumCPUs+1)/2),
		reqs:        make([]bus.Request, 0, cfg.NumCPUs),
		steps:       make([]ThreadStep, 0, cfg.NumCPUs),
		adds:        make([]microAdds, cfg.NumCPUs),
		asked:       make([]bus.Request, 0, cfg.NumCPUs),
		grants:      make([]bus.Grant, 0, cfg.NumCPUs),
	}
	_, m.out = m.busAllocate(nil, nil) // the answer to the empty vector asked
	return m, nil
}

// Release hands the machine's bus model back to the pool New takes
// from, with every equilibrium it solved, for a later machine to
// replay. The machine must not be used after Release; a second Release
// does nothing.
func (m *Machine) Release() {
	if m.bus != nil {
		busModels.Put(m.bus)
		m.bus, m.busAllocate = nil, nil
	}
}

// allocate returns the bus grants and outcome for reqs, and whether
// reqs differs from the vector the model was last asked about. Demands
// change only at phase, debt and barrier edges, so a micro-step usually
// repeats the previous one's vector, within a Step and across Steps;
// the model is asked only when the vector changed. The comparison is
// bitwise, per field, as the model's memo keys, so a -0 demand is a
// new vector. The grants alias machine scratch, valid until the next
// call.
func (m *Machine) allocate(reqs []bus.Request) ([]bus.Grant, bus.Outcome, bool) {
	changed := !sameRequests(m.asked, reqs)
	if changed {
		m.grants, m.out = m.busAllocate(m.grants, reqs)
		m.asked = append(m.asked[:0], reqs...)
	}
	return m.grants, m.out, changed
}

// sameRequests reports whether a and b are bitwise equal, element by
// element.
func sameRequests(a, b []bus.Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRequest(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameRequest reports whether a and b are bitwise equal, per field.
func sameRequest(a, b bus.Request) bool {
	return math.Float64bits(float64(a.Demand)) == math.Float64bits(float64(b.Demand)) &&
		math.Float64bits(a.StallFrac) == math.Float64bits(b.StallFrac)
}

// Now returns the current simulated time.
func (m *Machine) Now() units.Time { return m.now }

// LastCPU returns where the thread last ran, or -1 if it never ran.
func (m *Machine) LastCPU(t *workload.Thread) int { return t.RanOn - 1 }

// Step runs the given placements for dt of wall-clock time. Placements
// must reference distinct CPUs within range and distinct, unfinished
// threads; violations return an error and leave state untouched but
// for ending the previous Step's record (see PlanStretch).
//
// Each placed thread's virtual counter is committed once, at the end of
// the Step: the per-micro-step increments are summed first and added
// with one Counters.Add, which is exact because masked counter
// addition is associative. Nothing may read a placed thread's counter
// while Step runs.
//
// What a micro-step adds to a placement (its solo-equivalent advance,
// counter increment and Speed and Rate weights) depends only on the
// bus grant, the SMT sharing, the micro-step length and dt. Step
// derives those values when the bus answer changes or the micro-step
// length does (the first micro-step, and a quantum's short last one),
// and each micro-step adds the stored values. The expressions are the
// ones a per-micro-step derivation evaluates, each product rounded
// explicitly, so the bits are the same on every GOARCH.
func (m *Machine) Step(placements []Placement, dt units.Time) (StepResult, error) {
	m.uniform = false
	if dt <= 0 {
		return StepResult{}, errors.New("machine: non-positive step duration")
	}
	if len(placements) > m.cfg.NumCPUs {
		return StepResult{}, fmt.Errorf("machine: %d placements on %d CPUs", len(placements), m.cfg.NumCPUs)
	}
	for i := range m.cpuUsed {
		m.cpuUsed[i] = false
	}
	for i, p := range placements {
		if p.Thread == nil {
			return StepResult{}, errors.New("machine: nil thread placed")
		}
		if p.CPU < 0 || p.CPU >= m.cfg.NumCPUs {
			return StepResult{}, fmt.Errorf("machine: CPU %d out of range", p.CPU)
		}
		if m.cpuUsed[p.CPU] {
			return StepResult{}, fmt.Errorf("machine: CPU %d double-booked", p.CPU)
		}
		for _, q := range placements[:i] {
			if q.Thread == p.Thread {
				return StepResult{}, fmt.Errorf("machine: thread %s/%d placed twice", p.Thread.App.Instance, p.Thread.Index)
			}
		}
		m.cpuUsed[p.CPU] = true
	}

	// Micro-step so that phase boundaries and refill debt are honoured
	// within the slice.
	steps := int((dt + microStep - 1) / microStep)
	if need := m.cfg.NumCPUs * steps; cap(m.soloPerSub) < need {
		m.soloPerSub = make([]float64, need)
	}
	// Every slot in use is overwritten below; clear the rest so the
	// scratch holds no stale thread pointers.
	scratch := m.steps[:cap(m.steps)]
	clear(scratch[len(placements):])
	res := StepResult{
		Elapsed: dt,
		Threads: scratch[:len(placements)],
	}
	for i, p := range placements {
		res.Threads[i] = ThreadStep{Thread: p.Thread, CPU: p.CPU, SoloPerSub: m.soloPerSub[i*steps : (i+1)*steps]}
		last := p.Thread.RanOn - 1 // -1: never ran
		switch {
		case last >= 0 && last != p.CPU:
			// Full migration: the working set must be rebuilt.
			p.Thread.Migrate()
			res.Threads[i].Migrated = true
			res.Migrations++
		case last >= 0 && m.lastThread[p.CPU] != p.Thread:
			// Resuming on its own processor after someone else used
			// it: partial working-set refill.
			p.Thread.AddDebt(float64(pollutionFrac * float64(p.Thread.App.Profile.MigrationPenalty)))
		}
		if m.lastThread[p.CPU] != p.Thread {
			res.ContextSwitches++
		}
		p.Thread.RanOn = p.CPU + 1
		m.lastThread[p.CPU] = p.Thread
	}

	// Core occupancy for SMT resource sharing.
	var busyCore []int
	if m.cfg.SMT {
		busyCore = m.busyCore
		for i := range busyCore {
			busyCore[i] = 0
		}
		for _, p := range placements {
			busyCore[p.CPU/2]++
		}
	}

	// steps >= 1 and every micro-step is non-empty: dt > 0.
	remaining := dt
	var utilSum float64
	var servedSum units.Rate
	uniform := true
	reqs := m.reqs[:len(placements)] // cap is NumCPUs >= len(placements)
	adds := m.adds[:len(placements)]
	var derivedSub units.Time // the micro-step length adds holds; 0: none yet
	for s := 0; s < steps; s++ {
		sub := microStep
		if sub > remaining {
			sub = remaining
		}
		remaining -= sub
		for i, p := range placements {
			reqs[i].Demand, reqs[i].StallFrac = p.Thread.Request()
		}
		grants, out, changed := m.allocate(reqs)
		if changed && s > 0 {
			uniform = false
		}
		if changed || sub != derivedSub {
			derivedSub = sub
			wall := float64(sub)
			w := float64(sub) / float64(dt)
			for i, p := range placements {
				g := grants[i]
				speed := g.Speed
				if m.cfg.SMT && busyCore[p.CPU/2] > 1 {
					// Both logical siblings of this core are busy: they
					// share the core's execution resources.
					speed *= smtEfficiency
				}
				a := &adds[i]
				a.trans = 0
				p.Thread.AccrueCounters(&a.trans, wall, g.Rate*units.Rate(speed/maxf(g.Speed, 1e-12)))
				a.solo = float64(wall * speed)
				a.speed = float64(speed * w)
				a.rate = units.Rate(g.Rate * units.Rate(w*speed/maxf(g.Speed, 1e-12)))
			}
		}
		for i, p := range placements {
			a, ts := &adds[i], &res.Threads[i]
			ts.Transactions += a.trans
			ts.SoloPerSub[s] = a.solo
			p.Thread.AdvanceWork(a.solo)
			ts.Speed += a.speed
			ts.Rate += a.rate
		}
		utilSum += out.Utilization
		servedSum += out.Served
		res.Stretch = out.Stretch
	}
	for i, p := range placements {
		p.Thread.Counters.Add(res.Threads[i].Transactions)
		res.Threads[i].Req = reqs[i]
	}
	res.MeanUtilization = utilSum / float64(steps)
	res.MeanServed = servedSum / units.Rate(steps)
	m.now += dt
	m.last, m.uniform = res, uniform
	return res, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
