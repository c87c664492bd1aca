// Package workload models the applications the paper schedules: the
// NAS and Splash-2 codes of Figure 1, the BBMA / nBBMA antagonist
// microbenchmarks, and generated synthetic mixes.
//
// An application is a gang of threads; each thread executes a cyclic
// list of phases. A phase is a stretch of solo-equivalent execution
// time with a constant bus-transaction demand and memory-stall
// fraction. Uniform applications have one phase; bursty ones
// (Raytrace, LU CB) alternate phases, which is what destabilizes the
// "Latest Quantum" policy in the paper's Figure 2B.
//
// The simulator advances threads in solo-equivalent microseconds: the
// bus model turns wall-clock quantum time into solo-equivalent
// progress via the contention speed factor, and the thread consumes
// its phases accordingly while its virtual bus-transaction counter
// accumulates the transactions actually issued.
package workload

import (
	"errors"
	"fmt"
	"math"

	"busaware/internal/perfctr"
	"busaware/internal/units"
)

// Phase is a stretch of execution with uniform bus behaviour.
type Phase struct {
	// Duration is the phase length in solo-equivalent usec.
	Duration units.Time
	// Demand is the per-thread solo bus transaction rate, trans/usec.
	Demand units.Rate
	// StallFrac is the fraction of solo time stalled on the bus.
	StallFrac float64
}

// Profile describes an application type.
type Profile struct {
	// Name identifies the application ("CG", "BBMA", ...).
	Name string
	// Threads is the gang size; the schedulers allocate processors to
	// all of them or none (gang-like policies) .
	Threads int
	// SoloTime is the solo-equivalent execution time of each thread.
	// Zero or negative means the application never finishes — used for
	// the antagonist microbenchmarks, which run for the whole
	// experiment.
	SoloTime units.Time
	// Phases is the cyclic phase list; must be non-empty.
	Phases []Phase
	// MigrationPenalty prices a migration: the solo-equivalent extra
	// work a thread owes after running on a different processor than
	// last time. It is repaid at RefillDemand, the traffic of
	// rebuilding the cache. Applications with very high L2 hit rates
	// (LU CB, Water-nsqr) have large penalties — the paper singles
	// them out as migration-sensitive.
	MigrationPenalty units.Time
	// BarrierInterval is the solo-equivalent execution time between
	// synchronization barriers. The paper's applications are OpenMP /
	// Splash-2 codes that barrier frequently: a thread that runs ahead
	// of a descheduled sibling reaches the next barrier and spin-waits,
	// burning its processor without progress or bus traffic. This is
	// the classic motivation for the gang-like allocation the paper's
	// policies use: they always run all of an application's threads
	// together, so its threads never spin at barriers. Zero means no
	// barriers (the single-threaded microbenchmarks).
	BarrierInterval units.Time
}

// Validate reports profile construction errors.
func (p Profile) Validate() error {
	if p.Name == "" {
		return errors.New("workload: profile needs a name")
	}
	if p.Threads < 1 {
		return fmt.Errorf("workload: %s: threads = %d", p.Name, p.Threads)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload: %s: no phases", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("workload: %s: phase %d duration %v", p.Name, i, ph.Duration)
		}
		if ph.Demand < 0 {
			return fmt.Errorf("workload: %s: phase %d negative demand", p.Name, i)
		}
		if ph.StallFrac < 0 || ph.StallFrac > 1 {
			return fmt.Errorf("workload: %s: phase %d stall %v", p.Name, i, ph.StallFrac)
		}
	}
	if p.MigrationPenalty < 0 {
		return fmt.Errorf("workload: %s: negative migration penalty", p.Name)
	}
	if p.BarrierInterval < 0 {
		return fmt.Errorf("workload: %s: negative barrier interval", p.Name)
	}
	return nil
}

// Endless reports whether the application never completes. Its
// pointer receiver lets the per-quantum completion checks ask without
// copying the Profile.
func (p *Profile) Endless() bool { return p.SoloTime <= 0 }

// SoloRate returns the application's cumulative steady-state solo
// transaction rate across all threads — the quantity plotted as the
// black bars of Figure 1A. For multi-phase profiles it is the
// time-weighted mean over one phase cycle.
func (p Profile) SoloRate() units.Rate {
	var total units.Time
	var weighted float64
	for _, ph := range p.Phases {
		total += ph.Duration
		// The explicit float64 rounds the product before the sum, so it
		// cannot fuse into a multiply-add on any GOARCH.
		weighted += float64(float64(ph.Demand) * float64(ph.Duration))
	}
	if total == 0 {
		return 0
	}
	return units.Rate(weighted/float64(total)) * units.Rate(p.Threads)
}

// Thread is one runnable thread of an App instance.
//
// A micro-step asks each placed thread three questions: what it
// requests of the bus (Request), whether it is done (Done), and how far
// it may advance before its barrier (AdvanceWork). The thread answers
// all three from its own fields, kept next to each other: NewApp copies
// from the fixed Profile what they read (the completion threshold, the
// barrier interval and the current phase), and sibFloor bounds the
// siblings' progress from below, so a sibling scan runs only where the
// bound cannot decide the answer (see sibFloor).
type Thread struct {
	App *App
	// Index is the thread's position within its gang.
	Index int
	// Counters is the thread's virtual BUS_TRAN_ANY counter.
	Counters perfctr.Counters
	// RanOn belongs to the machine that runs the thread: one more than
	// the processor the thread last ran on, or zero before its first
	// run. A thread runs on one machine.
	RanOn int

	// The hot state a micro-step reads; work in solo-equivalent usec.
	phase    Phase   // App.Profile.Phases[phaseIdx], rewritten where phaseIdx moves
	progress float64 // total solo usec of real work completed
	debt     float64 // migration penalty work still owed
	// sibFloor is the smallest sibling progress the thread's last
	// sibling scan (barrierCap) saw, zero before the first. Progress
	// never decreases (AdvanceWork and ReplayAdvance add only positive
	// advances, and ReplayLike writes what ReplayAdvance would), so
	// sibFloor <= m, the siblings' minimum now. Rounding to nearest is
	// monotone in each operand, so the headroom bound
	// fl(fl(sibFloor+interval) - progress) is at most
	// fl(fl(m+interval) - progress), the headroom a scan computes before
	// clamping it at zero. An advance no larger than the bound is
	// therefore not clamped, and a positive bound means no barrier: each
	// is the scan's own answer, whatever order siblings advance in.
	sibFloor  float64
	interval  float64 // float64(BarrierInterval); +Inf without a barrier or siblings
	soloTime  float64 // float64(SoloTime); +Inf when the app is endless
	phaseUsed float64 // solo usec consumed within the current phase
	phaseIdx  int
}

// Done reports whether the thread has completed its solo work. An
// endless thread's threshold is +Inf, which its progress, a sum of
// finite advances, never reaches.
func (t *Thread) Done() bool { return t.progress >= t.soloTime }

// Progress returns completed solo-equivalent work in usec.
func (t *Thread) Progress() float64 { return t.progress }

// CurrentPhase returns the phase governing the thread right now.
func (t *Thread) CurrentPhase() Phase { return t.phase }

// PhasePos reports the thread's position in its cyclic phase list: the
// current phase index and the solo-equivalent time consumed within it.
// The event-driven engine uses it to bound leaps at phase boundaries
// and to prove gang lockstep.
func (t *Thread) PhasePos() (idx int, used float64) {
	return t.phaseIdx, t.phaseUsed
}

// Request returns the thread's instantaneous solo bus demand and
// stall fraction. While a thread is repaying migration debt it runs at
// memory speed: the refill stream dominates both. A thread
// spin-waiting at a barrier hits in cache and issues almost nothing.
func (t *Thread) Request() (demand units.Rate, stallFrac float64) {
	switch {
	case t.debt > 0:
		return maxRate(t.phase.Demand, RefillDemand), maxf(t.phase.StallFrac, RefillStallFrac)
	case t.AtBarrier():
		return SpinDemand, 0
	}
	return t.phase.Demand, t.phase.StallFrac
}

// Demand returns the thread's instantaneous solo bus demand, as
// Request does.
func (t *Thread) Demand() units.Rate {
	d, _ := t.Request()
	return d
}

// SpinDemand is the bus demand of a thread spinning on a cached
// synchronization flag: essentially nil.
const SpinDemand units.Rate = 0.01

// AtBarrier reports whether the thread has run ahead of its slowest
// sibling by a full barrier interval and must spin until the sibling
// catches up. A positive headroom bound settles it without a scan.
func (t *Thread) AtBarrier() bool {
	if t.headroomFloor() > 0 {
		return false
	}
	return t.barrierCap() == 0 && !t.Done()
}

// BarrierHeadroom returns how much further the thread may progress
// before it would spin at a barrier, or +Inf without barriers — the
// exported view of barrierCap the event-driven engine bounds leap
// horizons with. It always scans.
func (t *Thread) BarrierHeadroom() float64 { return t.barrierCap() }

// headroomFloor bounds barrierCap's headroom from below without a scan
// (see sibFloor). It is +Inf without barriers.
func (t *Thread) headroomFloor() float64 {
	return t.sibFloor + t.interval - t.progress
}

// barrierCap scans the siblings, refreshes sibFloor, and returns how
// much further the thread may progress before spinning, or +Inf
// without barriers.
func (t *Thread) barrierCap() float64 {
	if math.IsInf(t.interval, 1) {
		return t.interval
	}
	t.sibFloor = t.App.minProgress(t)
	cap := t.sibFloor + t.interval - t.progress
	if cap < 0 {
		return 0
	}
	return cap
}

// RefillDemand and RefillStallFrac characterize the working-set refill
// stream a thread issues while it repays migration debt: back-to-back
// line fills, essentially the BBMA pattern.
const (
	RefillDemand    units.Rate = 20
	RefillStallFrac            = 0.95
)

// Migrate charges the thread its profile's MigrationPenalty as debt.
// The thread repays it at RefillDemand (see Request), so the refill
// traffic lands on its counter as the debt is worked off.
func (t *Thread) Migrate() {
	t.AddDebt(float64(t.App.Profile.MigrationPenalty))
}

// AddDebt charges the thread extra solo-equivalent work (usec) that
// must be repaid before real progress resumes. The machine model uses
// it for cache pollution after time-sharing a processor, and the
// simulator for CPU-manager overhead.
func (t *Thread) AddDebt(usec float64) {
	if usec > 0 {
		t.debt += usec
	}
}

// Debt returns the outstanding penalty work in solo-equivalent usec.
func (t *Thread) Debt() float64 { return t.debt }

// AccrueCounters adds to sum the bus transactions issued running for
// wallUsec of wall-clock time at actualRate (the bus grant), truncated
// to an integer per call, so a caller summing micro-steps into sum and
// committing it with one Counters.Add reaches exactly the value a
// per-micro-step Add would (40-bit masked addition is associative and
// 2^40 divides 2^64).
func (t *Thread) AccrueCounters(sum *uint64, wallUsec float64, actualRate units.Rate) {
	// The explicit float64 rounds the product before the conversion,
	// which subtracts 2^63 from large values on some GOARCHes and must
	// not fuse with it.
	*sum += uint64(float64(float64(actualRate) * wallUsec))
}

// AdvanceWork runs the thread for soloUsec of solo-equivalent time
// (wall time multiplied by the bus model's speed factor), consuming
// migration debt first, then real phase work. It leaves the counter
// alone: the caller accrues the transactions issued (AccrueCounters).
// The event-driven simulation engine replays constant stretches with
// it: counter increments batch exactly across identical quanta
// (modular addition is associative), but floating-point progress
// accumulation is not, so the engine repeats precisely these
// operations micro-step by micro-step to stay bit-identical with
// stepped execution.
func (t *Thread) AdvanceWork(soloUsec float64) {
	if soloUsec < 0 {
		soloUsec = 0
	}
	// Debt repayment does not advance real progress.
	if t.debt > 0 {
		pay := math.Min(t.debt, soloUsec)
		t.debt -= pay
		soloUsec -= pay
	}
	if soloUsec <= 0 || t.Done() {
		return
	}
	// Barrier synchronization: progress beyond a barrier interval ahead
	// of the slowest sibling is spin-waiting, not work. An advance
	// within the floor's bound is never clamped, so only a larger one
	// scans.
	if soloUsec > t.headroomFloor() {
		if cap := t.barrierCap(); soloUsec > cap {
			soloUsec = cap
		}
		if soloUsec <= 0 {
			return
		}
	}
	t.progress += soloUsec
	// Walk the cyclic phase list.
	t.phaseUsed += soloUsec
	for {
		d := float64(t.phase.Duration)
		if t.phaseUsed < d {
			break
		}
		t.phaseUsed -= d
		t.phaseIdx++
		if t.phaseIdx == len(t.App.Profile.Phases) {
			t.phaseIdx = 0
		}
		t.phase = t.App.Profile.Phases[t.phaseIdx]
	}
}

// ReplayAdvance is AdvanceWork's leap-replay fast path: one quantum's
// micro-step advances, applied back to back. It performs the bitwise-
// identical floating-point updates for a thread that owes no debt, has
// not finished, and stays strictly inside its barrier headroom — the
// preconditions the event engine's leap horizon establishes before
// replaying a quantum. Skipping the debt, completion and barrier checks
// (each a guaranteed no-op under those preconditions) removes the
// sibling scans that would otherwise dominate replay cost, and batching
// the whole quantum keeps progress and phase position in registers.
// Batching across threads is sound because a replayed advance touches
// only the thread's own state: per-thread float sequences are
// independent, so the cross-thread interleaving of the stepped loop
// does not affect any thread's operation order.
func (t *Thread) ReplayAdvance(soloPerSub []float64) {
	progress, used := t.progress, t.phaseUsed
	phases := t.App.Profile.Phases
	idx := t.phaseIdx
	d := float64(phases[idx].Duration) // current phase length, kept in a register
	for _, s := range soloPerSub {
		if s <= 0 {
			continue
		}
		progress += s
		used += s
		for used >= d {
			used -= d
			idx++
			if idx == len(phases) {
				idx = 0
			}
			d = float64(phases[idx].Duration)
		}
	}
	t.progress, t.phaseUsed, t.phaseIdx, t.phase = progress, used, idx, phases[idx]
}

// ReplayLike gives the thread lead's progress and phase position. It
// is what ReplayAdvance would leave when the thread and lead belong to
// one app, started from bitwise-equal progress and phase position, and
// replayed bitwise-equal advances: ReplayAdvance reads nothing else.
// The event engine replays a lockstep gang's quantum once this way.
func (t *Thread) ReplayLike(lead *Thread) {
	t.progress, t.phaseUsed, t.phaseIdx, t.phase = lead.progress, lead.phaseUsed, lead.phaseIdx, lead.phase
}

// App is one running instance of a Profile.
type App struct {
	// Profile is fixed once NewApp returns: the threads keep copies of
	// what their micro-steps read from it.
	Profile  Profile
	Instance string // distinguishes multiple copies, e.g. "CG#1"
	Threads  []*Thread

	// Arrived and Completed are stamped by the simulator.
	Arrived   units.Time
	Completed units.Time
	completed bool
}

// NewApp instantiates profile p. It panics on an invalid profile;
// profiles come from the registry or generators, both of which
// validate.
func NewApp(p Profile, instance string) *App {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	a := &App{Profile: p, Instance: instance}
	soloTime, interval := math.Inf(1), math.Inf(1)
	if !p.Endless() {
		soloTime = float64(p.SoloTime)
	}
	if p.BarrierInterval > 0 && p.Threads > 1 {
		interval = float64(p.BarrierInterval)
	}
	a.Threads = make([]*Thread, p.Threads)
	for i := range a.Threads {
		a.Threads[i] = &Thread{App: a, Index: i, phase: p.Phases[0], soloTime: soloTime, interval: interval}
	}
	return a
}

// CloneFresh returns a pristine copy of the app: same profile,
// instance name and arrival time, with zeroed progress and counter —
// exactly what NewApp would have produced for the same inputs.
// Run-time state accumulated so far is deliberately not copied; the
// shadow engine uses CloneFresh before any quantum has run to execute
// the same workload on both simulation cores.
func (a *App) CloneFresh() *App {
	c := NewApp(a.Profile, a.Instance)
	c.Arrived = a.Arrived
	return c
}

// minProgress returns the smallest progress among the app's threads
// other than skip (or including all if skip is nil).
func (a *App) minProgress(skip *Thread) float64 {
	min := math.Inf(1)
	for _, th := range a.Threads {
		if th == skip {
			continue
		}
		if th.progress < min {
			min = th.progress
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// Done reports whether every thread has finished.
func (a *App) Done() bool {
	if a.Profile.Endless() {
		return false
	}
	for _, t := range a.Threads {
		if !t.Done() {
			return false
		}
	}
	return true
}

// MarkCompleted stamps the completion time once.
func (a *App) MarkCompleted(now units.Time) {
	if !a.completed {
		a.completed = true
		a.Completed = now
	}
}

// IsMarkedCompleted reports whether MarkCompleted has run.
func (a *App) IsMarkedCompleted() bool { return a.completed }

// Turnaround returns completion minus arrival; zero if not completed.
func (a *App) Turnaround() units.Time {
	if !a.completed {
		return 0
	}
	return a.Completed - a.Arrived
}

func maxRate(a, b units.Rate) units.Rate {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
