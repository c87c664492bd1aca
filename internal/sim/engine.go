// Event-driven engine: instead of stepping every quantum, leap across
// stretches during which nothing observable changes.
//
// The quantum-stepped loop spends almost all of its time recomputing a
// fixed point: in steady state the scheduler reproduces the same
// placements, the bus model grants the same speeds, and every sampling
// artifact repeats bitwise. The event engine detects that fixed point
// after each stepped quantum (the "probe") and replays the stretch it
// anchors analytically:
//
//   - integer state — machine clock, performance counters, per-app
//     run time and transaction totals — batches in O(1) per stretch,
//     because modular integer addition is associative;
//   - floating-point state — thread progress, phase position, the
//     bandwidth-sample windows, the bus-utilization sum — is replayed
//     value-by-value in the exact order the stepped loop would have
//     produced, because float addition is not associative and the
//     goldens pin results to the bit. The replay skips everything else
//     (scheduling, bus allocation, per-quantum counter updates, monitor
//     polls, per-quantum map traffic), which is where the speedup comes
//     from.
//
// The stretch ends at the earliest "interesting" time: the MaxTime
// guard, a phase boundary, a completion, a barrier that is not in
// provable lockstep, or — conservatively — anything the per-quantum
// invariant check notices. Faults, CPU-manager overhead and dynamic
// arrivals all force the engine back to plain quantum-stepping with
// zero behaviour change. Tracing does not: a leapt stretch goes through
// the same per-quantum record as a stepped quantum (see recorder), so a
// traced run leaps and its Chrome trace matches the stepped core's byte
// for byte. Both cores build their jobs with sched.JobFor, and a leap
// replays the probe itself: the machine's record of the quantum it
// just stepped and the samples that quantum's sampling pass produced.
package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"

	"busaware/internal/bus"
	"busaware/internal/machine"
	"busaware/internal/sched"
	"busaware/internal/timeline"
	"busaware/internal/trace"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// EngineKind selects the simulation core.
type EngineKind int

const (
	// EngineQuantum is the classic loop: schedule, step, sample, every
	// quantum. The zero value, so existing callers are unchanged.
	EngineQuantum EngineKind = iota
	// EngineEvent leaps across constant stretches and falls back to
	// quantum-stepping whenever state actually evolves. Results are
	// bit-identical to EngineQuantum.
	EngineEvent
	// EngineShadow runs both cores on identical inputs and diffs the
	// full Result structs, timeline windows and, when traced, Chrome
	// trace bytes — the paranoid mode CI uses to hold the event engine
	// to the stepped loop.
	EngineShadow
)

func (k EngineKind) String() string {
	switch k {
	case EngineQuantum:
		return "quantum"
	case EngineEvent:
		return "event"
	case EngineShadow:
		return "shadow"
	default:
		return fmt.Sprintf("engine(%d)", int(k))
	}
}

// ParseEngine maps a flag value to an EngineKind. The empty string
// selects EngineQuantum, matching the Config zero value.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "", "quantum":
		return EngineQuantum, nil
	case "event":
		return EngineEvent, nil
	case "shadow":
		return EngineShadow, nil
	default:
		return EngineQuantum, fmt.Errorf("sim: unknown engine %q (want quantum, event or shadow)", s)
	}
}

// leapSlack inflates per-quantum progress upper bounds so that
// floating-point accumulation error over a long stretch can never push
// a thread past an event boundary the integer horizon math placed it
// before. Summation error over a stretch is bounded by ~n·ε with
// n ≤ ~2e5 additions and ε = 2^-52, i.e. below 1e-10 relative; 1e-9
// leaves an order of magnitude to spare and costs at most one quantum
// of horizon.
const leapSlack = 1e-9

// leapScratch is tryLeap's reusable state, owned by one run loop. Each
// list holds plan thread indices, at most one per plan thread.
type leapScratch struct {
	// finiteThreads and multiPhase are the per-quantum stop watch list:
	// the plan threads whose replay-visible state can actually move.
	// ReplayAdvance writes only progress and phase position, so debt,
	// barriers and single-phase bus requests are physically frozen for
	// the whole stretch (PlanStretch verified them at the probe). What
	// remains observable per quantum is a finite thread completing and
	// a multi-phase thread wrapping (visible as a request change).
	finiteThreads []int
	multiPhase    []int
	// twin[i] is the earlier plan thread whose replay plan thread i's
	// would repeat bit for bit, or -1 (see replayTwin).
	twin []int
}

// newLeapScratch sizes the scratch for a machine of numCPUs processors,
// the most threads a plan holds, from one array, so no leap grows it.
func newLeapScratch(numCPUs int) leapScratch {
	buf := make([]int, 3*numCPUs)
	return leapScratch{
		finiteThreads: buf[:0:numCPUs],
		multiPhase:    buf[numCPUs : numCPUs : 2*numCPUs],
		twin:          buf[2*numCPUs : 2*numCPUs : 3*numCPUs],
	}
}

// leapHorizon bounds how many quanta may be replayed from the plan
// before an event could change behaviour: the MaxTime guard, a phase
// boundary (Step re-reads demands every micro-step, so the whole
// boundary-crossing quantum must be excluded), a completion (the
// completing quantum runs stepped), or a barrier whose gang is not in
// provable lockstep. Zero means no leap.
func leapHorizon(plan *machine.StepResult, now, maxTime units.Time) int {
	q := plan.Elapsed
	if q <= 0 || now >= maxTime {
		return 0
	}
	// Quanta the stepped loop would still start before the guard fires.
	k := int((maxTime - now + q - 1) / q)
	for i := range plan.Threads {
		pt := &plan.Threads[i]
		var soloQ float64
		for _, s := range pt.SoloPerSub {
			soloQ += s
		}
		if soloQ <= 0 {
			// No progress, hence no thread-side events.
			continue
		}
		perQ := soloQ * (1 + leapSlack)
		t := pt.Thread
		prof := &t.App.Profile
		if !prof.Endless() {
			rem := float64(prof.SoloTime) - t.Progress()
			if rem <= perQ {
				return 0
			}
			// Largest kc with kc*perQ < rem. perQ carries leapSlack, which
			// dwarfs the replay sum's accumulated rounding (~20k additions
			// of exact per-sub values), so kc quanta provably cannot reach
			// completion and the completing quantum itself stays stepped.
			kc := int(rem / perQ)
			if float64(kc)*perQ >= rem {
				kc--
			}
			if kc < k {
				k = kc
			}
		}
		if len(prof.Phases) > 1 {
			idx, used := t.PhasePos()
			rem := float64(prof.Phases[idx].Duration) - used
			if rem <= perQ {
				return 0
			}
			if kp := int(rem/perQ) - 1; kp < k {
				k = kp
			}
		}
		if prof.BarrierInterval > 0 && len(t.App.Threads) > 1 && !lockstepGang(plan, t.App) {
			head := t.BarrierHeadroom()
			if head <= perQ {
				return 0
			}
			if kb := int(head/perQ) - 1; kb < k {
				k = kb
			}
		}
	}
	if k < 0 {
		k = 0
	}
	return k
}

// lockstepGang proves a barrier gang cannot spin during the stretch:
// every sibling is placed, all start at bitwise-equal progress, all
// receive bitwise-equal per-micro-step advances (so progress stays
// equal by induction), and each advance is well inside the barrier
// interval (so the running thread's headroom, always at least one full
// interval over its unadvanced siblings, covers it). Such a gang never
// clamps, hence never changes demand.
func lockstepGang(plan *machine.StepResult, app *workload.App) bool {
	first, count := -1, 0
	for i := range plan.Threads {
		if plan.Threads[i].Thread.App != app {
			continue
		}
		count++
		if first < 0 {
			first = i
			continue
		}
		a, b := &plan.Threads[first], &plan.Threads[i]
		if !sameBits(b.Thread.Progress(), a.Thread.Progress()) || !sameAdvances(a.SoloPerSub, b.SoloPerSub) {
			return false
		}
	}
	if first < 0 || count != len(app.Threads) {
		return false
	}
	var maxSub float64
	for _, s := range plan.Threads[first].SoloPerSub {
		if s > maxSub {
			maxSub = s
		}
	}
	return maxSub*2 <= float64(app.Profile.BarrierInterval)
}

// replayTwin returns the first plan thread before i whose replay thread
// i's would repeat bit for bit, or -1. ReplayAdvance is a pure function
// of the thread's progress and phase position, its app's phases and the
// advances, so a thread of the same app that starts with all of them
// bitwise equal ends with the same state, quantum after quantum
// (Thread.ReplayLike copies it). A lockstep gang replays once.
func replayTwin(plan *machine.StepResult, i int) int {
	b := &plan.Threads[i]
	bIdx, bUsed := b.Thread.PhasePos()
	for j := range plan.Threads[:i] {
		a := &plan.Threads[j]
		aIdx, aUsed := a.Thread.PhasePos()
		if a.Thread.App == b.Thread.App && sameBits(a.Thread.Progress(), b.Thread.Progress()) &&
			aIdx == bIdx && sameBits(aUsed, bUsed) && sameAdvances(a.SoloPerSub, b.SoloPerSub) {
			return j
		}
	}
	return -1
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameAdvances reports whether a and b are bitwise equal, element by
// element.
func sameAdvances(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// leapStop reports whether a stretch invariant that replay can actually
// move broke after a replayed quantum: a finite thread or application
// finished, or a multi-phase thread's bus request drifted. With a
// correct horizon none of these fire; they are defence in depth against
// horizon-math bugs. Debt, barriers and single-phase requests need no
// per-quantum check — nothing in the replay loop writes them (see
// leapScratch).
func (ls *leapScratch) leapStop(plan *machine.StepResult, finite []*appState) bool {
	for _, i := range ls.finiteThreads {
		if plan.Threads[i].Thread.Done() {
			return true
		}
	}
	for _, i := range ls.multiPhase {
		if d, f := plan.Threads[i].Thread.Request(); (bus.Request{Demand: d, StallFrac: f}) != plan.Threads[i].Req {
			return true
		}
	}
	for _, st := range finite {
		if st.app.Done() {
			return true
		}
	}
	return false
}

// tryLeap attempts to replay the stretch anchored by the quantum just
// stepped; when it does not leap, the loop keeps stepping. All
// preconditions are checked here so a failed attempt costs a few
// comparisons and leaves every piece of simulation state untouched.
// The only error is the machine refusing to advance its clock.
func (ls *leapScratch) tryLeap(
	cfg *Config,
	rec *recorder,
	s sched.Scheduler,
	m *machine.Machine,
	quantum units.Time,
	placements []machine.Placement,
	states []*appState,
	finite []*appState,
	connected, admitted int,
	res *Result,
	utilSum *float64,
) error {
	// The scheduler must certify that re-running Schedule would
	// reproduce these placements without evolving internal state.
	if !s.Stable() {
		return nil
	}
	// An application that completed during the probe changes the next
	// schedule; let retirement and stepping handle it.
	for _, st := range finite {
		if st.app.Done() && !st.app.IsMarkedCompleted() {
			return nil
		}
	}
	// The plan is the probe's own record (see machine.PlanStretch for
	// why repeating it is exact), and each replayed quantum repeats the
	// probe's sampling pass: the sample each application that ran just
	// received, and the transactions it was charged.
	plan, ok := m.PlanStretch(placements, quantum)
	if !ok {
		return nil
	}
	maxK := leapHorizon(&plan, m.Now(), cfg.MaxTime)
	if maxK < 1 {
		return nil
	}

	ls.prepare(&plan)

	// Replay. Per quantum: the exact micro-step advance sequence and
	// the utilization accumulation — the float-visible footprint of a
	// stepped quantum on the machine. Everything integer is batched
	// afterwards. ReplayAdvance is AdvanceWork minus the
	// debt/completion/barrier checks the leap horizon already proved
	// are no-ops; the float arithmetic it performs is bitwise
	// identical.
	startNow := m.Now()
	k := 0
	for k < maxK {
		ls.replayQuantum(&plan)
		k++
		*utilSum += plan.MeanUtilization
		if ls.leapStop(&plan, finite) {
			break
		}
	}

	// One bandwidth sample per admitted application per quantum.
	// Nothing reads a job's samples during the replay, so the k pushes
	// are committed together, in the same per-job order. The per-app
	// totals, like everything else integer — counters and the machine
	// clock — are modular or integral, so k quanta collapse to one
	// addition each.
	for _, st := range states {
		if st.sampled {
			st.job.PushSamples(st.job.LatestRate(), k)
			st.runTime += units.Time(k) * quantum
			st.trans += uint64(k) * st.qTrans
		}
	}
	for _, pt := range plan.Threads {
		pt.Thread.Counters.Add(uint64(k) * pt.Transactions)
	}
	if err := m.Advance(quantum, k); err != nil {
		return err
	}
	closeLeap(rec, res, states, m.Now(), timeline.Sample{
		StartUsec:   int64(startNow),
		DurUsec:     int64(quantum),
		Utilization: plan.MeanUtilization,
		Served:      float64(plan.MeanServed),
		Stretch:     plan.Stretch,
		Placed:      len(plan.Threads),
		Runnable:    connected,
		Admitted:    admitted,
	}, k, plan.Threads)
	return nil
}

// prepare fills the scratch for a leap from its plan: the watch list
// for the per-quantum stop check (only state replay can move needs
// re-testing each quantum) and each thread's replay twin.
func (ls *leapScratch) prepare(plan *machine.StepResult) {
	ls.finiteThreads = ls.finiteThreads[:0]
	ls.multiPhase = ls.multiPhase[:0]
	ls.twin = ls.twin[:0]
	for i := range plan.Threads {
		t := plan.Threads[i].Thread
		if !t.App.Profile.Endless() {
			ls.finiteThreads = append(ls.finiteThreads, i)
		}
		if len(t.App.Profile.Phases) > 1 {
			ls.multiPhase = append(ls.multiPhase, i)
		}
		ls.twin = append(ls.twin, replayTwin(plan, i))
	}
}

// replayQuantum replays one quantum of the plan's thread advances: a
// thread with a twin copies the twin's result (see replayTwin), and
// every other thread replays its own. A twin precedes its follower.
func (ls *leapScratch) replayQuantum(plan *machine.StepResult) {
	for i := range plan.Threads {
		pt := &plan.Threads[i]
		if j := ls.twin[i]; j >= 0 {
			pt.Thread.ReplayLike(plan.Threads[j].Thread)
		} else {
			pt.Thread.ReplayAdvance(pt.SoloPerSub)
		}
	}
}

// closeLeap accounts k leapt quanta described by s, during each of which
// threads ran (see recorder.record). Stepping polls every monitor of
// every application each quantum — including retired and idle ones,
// whose baselines still advance — so all resync to the post-leap clock
// now and its counter values.
func closeLeap(rec *recorder, res *Result, states []*appState, now units.Time, s timeline.Sample, k int, threads []machine.ThreadStep) {
	for _, st := range states {
		for _, mon := range st.monitors {
			mon.Resync(now)
		}
	}
	res.Quanta += k
	res.LeaptQuanta += k
	rec.record(s, k, threads)
}

// leapIdle batches the idle quanta between "no job connected" and the
// next arrival (or the MaxTime guard). With an empty queue every
// scheduler's Schedule is a stateless no-op and an idle quantum's only
// observable effects are the clock, the quantum count, one zero
// timeline sample and advancing monitor baselines — all exactly
// batchable.
func leapIdle(
	maxTime units.Time,
	rec *recorder,
	m *machine.Machine,
	quantum units.Time,
	states []*appState,
	pending []*appState,
	res *Result,
) error {
	next := maxTime
	for _, st := range pending {
		if st.app.Arrived < next {
			next = st.app.Arrived
		}
	}
	now := m.Now()
	if next <= now {
		return nil
	}
	k := int((next - now + quantum - 1) / quantum)
	if k < 1 {
		return nil
	}
	if err := m.Advance(quantum, k); err != nil {
		return err
	}
	// utilSum accrues +0.0 per idle quantum — a bitwise no-op on a
	// non-negative sum, so it is skipped entirely.
	closeLeap(rec, res, states, m.Now(), timeline.Sample{StartUsec: int64(now), DurUsec: int64(quantum)}, k, nil)
	return nil
}

// runShadow executes the workload on both cores — the stepped loop on
// the caller's scheduler and applications (authoritative), the event
// engine on fresh clones — and diffs everything (see diffRuns). A
// divergence is returned as an error naming its count and the first
// difference; the authoritative result is returned either way.
func runShadow(cfg Config, s sched.Scheduler, apps []*workload.App) (Result, error) {
	if cfg.SchedulerFactory == nil {
		return Result{}, errors.New("sim: shadow engine requires Config.SchedulerFactory")
	}
	s2, err := cfg.SchedulerFactory()
	if err != nil {
		return Result{}, fmt.Errorf("sim: shadow scheduler: %w", err)
	}
	if s2 == nil {
		return Result{}, errors.New("sim: shadow scheduler factory returned nil")
	}
	clones := make([]*workload.App, len(apps))
	for i, a := range apps {
		if a == nil {
			return Result{}, fmt.Errorf("sim: nil app at index %d", i)
		}
		clones[i] = a.CloneFresh()
	}

	cfgQ := cfg
	cfgQ.Engine = EngineQuantum
	if cfgQ.Timeline == nil {
		// Shadow always verifies the timeline path, even when the
		// caller attached no collector.
		cfgQ.Timeline = timeline.MustNew(timeline.Config{})
	}
	cfgE := cfg
	cfgE.Engine = EngineEvent
	cfgE.Timeline = timeline.MustNew(timeline.Config{
		QuantaPerWindow: cfgQ.Timeline.QuantaPerWindow(),
		Capacity:        cfgQ.Timeline.Capacity(),
	})
	if cfg.Trace != nil {
		// The event core records its own trace; the caller's belongs
		// to the authoritative run.
		cfgE.Trace = &trace.Timeline{NumCPUs: cfg.Trace.NumCPUs}
	}

	resQ, errQ := run(cfgQ, s, apps)
	resE, errE := run(cfgE, s2, clones)
	if errQ != nil || errE != nil {
		if (errQ == nil) != (errE == nil) {
			return resQ, fmt.Errorf("sim: shadow error divergence: quantum=%v event=%v", errQ, errE)
		}
		return resQ, errQ
	}
	if diffs := diffRuns(resQ, resE, &cfgQ, &cfgE); len(diffs) > 0 {
		return resQ, fmt.Errorf("sim: shadow divergence (%d): %s", len(diffs), diffs[0])
	}
	return resQ, nil
}

// diffRuns compares what two cores produced from the same workload: the
// Result (see diffResults), the sealed timeline and, when both runs were
// traced, the Chrome-trace bytes. It returns one line per difference.
func diffRuns(resQ, resE Result, q, e *Config) []string {
	d := diffResults(resQ, resE)
	d = diffValue(d, "timeline", reflect.ValueOf(sealed(q.Timeline)), reflect.ValueOf(sealed(e.Timeline)))
	if q.Trace != nil && e.Trace != nil {
		var bq, be bytes.Buffer
		if err := errors.Join(q.Trace.WriteChromeTrace(&bq), e.Trace.WriteChromeTrace(&be)); err != nil {
			d = append(d, "trace: "+err.Error())
		} else if !bytes.Equal(bq.Bytes(), be.Bytes()) {
			d = append(d, fmt.Sprintf("trace: Chrome-trace bytes differ (%d vs %d bytes)", bq.Len(), be.Len()))
		}
	}
	return d
}

// diffResults compares two Results field by field, floats by their
// bits. LeaptQuanta is engine metadata, not simulation output, so it is
// left out.
func diffResults(q, e Result) []string {
	q.LeaptQuanta, e.LeaptQuanta = 0, 0
	return diffValue(nil, "result", reflect.ValueOf(q), reflect.ValueOf(e))
}

// sealed is what a collector holds once its run has sealed it.
func sealed(c *timeline.Collector) any {
	return struct {
		Sealed  int64
		Windows []timeline.Window
		Summary timeline.Window
	}{c.Sealed(), c.Windows(), c.Summary()}
}

// diffValue walks a and b, two values of one type, through struct
// fields and slice elements, and appends a line naming the path
// of every leaf that differs — e.g. "result.Apps[0].Slowdown: 1.2 vs
// 1.3". Floats compare by their bits; every other leaf by ==.
func diffValue(d []string, path string, a, b reflect.Value) []string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			d = diffValue(d, path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
		return d
	case reflect.Slice:
		if a.Len() != b.Len() {
			return append(d, fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len()))
		}
		for i := 0; i < a.Len(); i++ {
			d = diffValue(d, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
		return d
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			d = append(d, fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float()))
		}
		return d
	}
	if !a.Equal(b) {
		d = append(d, fmt.Sprintf("%s: %#v vs %#v", path, a, b))
	}
	return d
}
