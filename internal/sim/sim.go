// Package sim runs multiprogrammed workloads on the simulated SMP
// under a chosen scheduling policy and collects the metrics the
// paper's figures are built from: per-application turnaround times,
// achieved bus transaction rates, migrations, context switches and bus
// utilization.
//
// The loop mirrors the paper's system structure: each quantum the
// scheduler produces placements, the machine executes them, and the
// CPU-manager sampling path (virtual performance counters polled via
// perfctr monitors) feeds per-thread bus-rate samples back to the
// policy for the applications that ran.
package sim

import (
	"errors"
	"fmt"

	"busaware/internal/faults"
	"busaware/internal/machine"
	"busaware/internal/perfctr"
	"busaware/internal/scenario"
	"busaware/internal/sched"
	"busaware/internal/timeline"
	"busaware/internal/trace"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Config controls one simulation run.
type Config struct {
	// Machine is the simulated hardware; zero value selects the paper
	// machine (DefaultConfig).
	Machine machine.Config
	// MaxTime caps simulated time as a runaway guard. Zero selects
	// DefaultMaxTime.
	MaxTime units.Time
	// ManagerOverhead is extra solo-equivalent work charged to every
	// placed thread each quantum, modelling the user-level CPU
	// manager's sampling and signalling cost. Zero for kernel
	// schedulers; the paper measured at most 4.5% for the manager.
	ManagerOverhead units.Time
	// Sampling selects how the CPU manager turns counter deltas into
	// the per-thread bandwidth estimates the policies consume. See the
	// SampleMode docs; the default is SampleRequirements.
	Sampling SampleMode
	// Trace, when non-nil, records every placement for later
	// rendering or Chrome-trace export.
	Trace *trace.Timeline
	// Timeline, when non-nil, receives one aggregated sample per
	// quantum — bus utilization and stretch, admission decisions,
	// queue depth, fault events — windowed into bounded memory by the
	// collector (see internal/timeline). Recording is allocation-free,
	// so attaching a collector does not disturb the PR 3 fast path,
	// and a nil collector costs one branch per quantum.
	Timeline *timeline.Collector
	// Faults configures seeded fault injection across the sampling and
	// signalling paths (see internal/faults). The zero value is inert:
	// no injector is built and the run is byte-identical to one with no
	// fault support at all. Faults model the *managed* stack — counter
	// sampling, arena publishing, block/unblock signalling, client
	// crashes — so kernel baselines (Linux, RR) are unaffected except
	// for counter-level faults, which they ignore anyway.
	Faults faults.Config
	// Engine selects the execution core: the classic quantum-stepped
	// loop (the zero value, so existing callers are unchanged), the
	// event-driven engine that leaps across constant stretches, or
	// shadow mode, which runs both and diffs every result. See
	// EngineKind.
	Engine EngineKind
	// SchedulerFactory, required for EngineShadow, builds a second
	// scheduler configured identically to the one passed to Run. The
	// shadow run drives the event engine with it so the authoritative
	// scheduler's internal state (sample windows, rotation order, RNG)
	// is never shared between the two cores.
	SchedulerFactory func() (sched.Scheduler, error)
	// Scenario, when non-nil, layers workload churn over the base
	// apps: the schedule's events submit fresh application instances
	// mid-run (through the same pending-admission path timed arrivals
	// use) and retire them again, youngest-first, as the pattern
	// recedes. The run still ends when the base workload's finite
	// applications complete; scenario instances that completed
	// naturally by then are reported in Result.Apps (with their
	// arrival time), ones retired by a departure or still running are
	// only counted. The event engine steps, never leaps, while any
	// scenario event is outstanding — churn is "unstable" — and
	// resumes leaping once the schedule drains. A nil Scenario is
	// byte-identical to a build without scenario support.
	Scenario *scenario.Schedule
}

// SampleMode selects the bandwidth estimator fed to the policies.
type SampleMode int

const (
	// SampleRequirements corrects the measured transaction rate for
	// contention, estimating the application's bandwidth
	// *requirements* — the paper's own term for the quantity the
	// policies schedule on. On real hardware the correction factor is
	// available from the same PMCs (bus stall cycles vs elapsed
	// cycles). This is the default: with raw consumption feedback a
	// saturated bus deflates every application's sample toward the
	// same value and the fitness metric loses its discriminating
	// power (see the SampleConsumption ablation in EXPERIMENTS.md).
	SampleRequirements SampleMode = iota
	// SampleConsumption feeds the raw measured rate (consumption,
	// deflated under contention). Kept as an ablation.
	SampleConsumption
)

// DefaultMaxTime bounds runs to 30 simulated minutes.
const DefaultMaxTime = 30 * 60 * units.Second

// AppResult is one application's outcome.
type AppResult struct {
	Instance string
	Profile  string
	// Arrived is when the application entered the system. Zero for the
	// classic fixed-mix workloads; scenario churn and timed arrivals
	// set it.
	Arrived units.Time
	// Turnaround is completion minus arrival — wall time spent in the
	// system, not completion time, so a late arrival is not charged
	// for the quanta before it existed.
	Turnaround units.Time
	// SoloTime is the profile's uncontended execution time.
	SoloTime units.Time
	// Slowdown is Turnaround / SoloTime.
	Slowdown float64
	// RunTime is the wall-clock time the app actually held processors.
	RunTime units.Time
	// MeanBusRate is the cumulative transaction rate achieved while
	// running (all threads summed) — the Figure 1A quantity.
	MeanBusRate units.Rate
	// Transactions is the total bus transactions issued.
	Transactions uint64
}

// Result is the outcome of one Run.
type Result struct {
	Scheduler string
	// Apps holds results for the finite applications, in input order.
	Apps []AppResult
	// EndTime is when the last finite application completed.
	EndTime units.Time
	Quanta  int
	// Migrations and ContextSwitches are machine-wide totals.
	Migrations      int
	ContextSwitches int
	// MeanBusUtilization averages the bus utilization over quanta.
	MeanBusUtilization float64
	// TimedOut reports the MaxTime guard fired before completion.
	TimedOut bool
	// LeaptQuanta counts quanta covered by event-engine leaps instead
	// of stepped execution — always 0 under EngineQuantum. Engine
	// metadata rather than simulation output, so shadow mode does not
	// diff it.
	LeaptQuanta int
	// FaultStats counts the faults injected into the run (zero when
	// Config.Faults is disabled).
	FaultStats faults.Stats
	// Scenario churn totals, all zero when Config.Scenario is nil:
	// instances admitted mid-run, instances retired by a departure
	// event before completing, and instances that completed naturally
	// (these also appear in Apps).
	ScenarioArrivals   int
	ScenarioDepartures int
	ScenarioCompleted  int
	// MicrobenchRates holds each endless base application's mean
	// cumulative bus rate over the run (its counted transactions over
	// EndTime), in input order — the microbenchmarks' share of the
	// Figure 1A workload rate. Scenario instances are left out.
	MicrobenchRates []units.Rate
}

// MeanTurnaround returns the arithmetic mean turnaround of the finite
// applications — the paper's headline metric ("the improvement in the
// arithmetic mean of the execution times of both application
// instances").
func (r Result) MeanTurnaround() units.Time {
	if len(r.Apps) == 0 {
		return 0
	}
	var sum units.Time
	for _, a := range r.Apps {
		sum += a.Turnaround
	}
	return sum / units.Time(len(r.Apps))
}

// appState wires one application to the scheduler (through the Job
// sched.JobFor builds) and to the CPU manager's sampling path (one
// perfctr monitor per thread). The per-quantum fields are scratch
// reused across quanta so the steady-state loop allocates nothing.
type appState struct {
	app      *workload.App
	job      *sched.Job
	monitors []*perfctr.Monitor
	runTime  units.Time
	trans    uint64

	// Per-quantum scratch: how many of the app's threads ran, the
	// contention-corrected demand they accumulated, and the
	// control-fault flags. All reset before the next quantum.
	ranThreads int
	demandCum  float64
	present    bool
	lost       bool

	// The last stepped quantum's sampling pass, which a leap repeats:
	// whether the application ran (so its job just received a sample)
	// and the transactions it was charged.
	sampled bool
	qTrans  uint64

	// scenario marks an instance materialized from Config.Scenario —
	// it never counts toward the base workload's completion condition.
	// departed is set when a departure event retires it mid-run.
	scenario bool
	departed bool
}

// wire connects app to s through the Job s schedules it by, and each of
// its threads to a perfctr monitor — the CPU manager's sampling path.
func wire(s sched.Scheduler, app *workload.App, now units.Time, inj *faults.Injector) *appState {
	st := &appState{app: app, job: sched.JobFor(s, app)}
	for _, th := range app.Threads {
		mon := perfctr.NewMonitor(&th.Counters)
		// Prime the monitor with its time-zero baseline so the first
		// quantum's transactions are not swallowed by baseline
		// establishment. The fault hook is attached only afterwards:
		// injected counter faults never eat the baseline itself.
		mon.Poll(now)
		if inj != nil {
			mon.SetFaultHook(inj)
		}
		st.monitors = append(st.monitors, mon)
	}
	return st
}

// accrue adds one thread's quantum to its application's sample: the
// contention-corrected requirement, consumption divided by the achieved
// speed fraction, recovers the rate the thread would sustain
// uncontended.
func (st *appState) accrue(speed float64, rate units.Rate) {
	st.ranThreads++
	if speed > 0 {
		st.demandCum += float64(rate) / speed
	}
}

// sample closes the application's quantum: ran reports whether any of
// its threads ran, and perThread is its BBW/thread — the application's
// bandwidth (accrued demand, or appTrans under SampleConsumption)
// equipartitioned among the threads that ran. The accrual resets.
func (st *appState) sample(mode SampleMode, appTrans uint64, quantum units.Time) (perThread float64, ran bool) {
	n := st.ranThreads
	if n == 0 {
		return 0, false
	}
	var cum units.Rate
	switch mode {
	case SampleConsumption:
		cum = units.Rate(float64(appTrans) / float64(quantum))
	default: // SampleRequirements
		cum = units.Rate(st.demandCum)
	}
	st.ranThreads, st.demandCum = 0, 0
	return float64(cum / units.Rate(n)), true
}

// recorder is the run's one per-quantum record: every stepped quantum,
// leapt stretch and idle leap goes through record, which feeds the
// timeline collector and the Chrome trace, whichever are attached.
type recorder struct {
	col *timeline.Collector
	tr  *trace.Timeline
	occ []trace.Slice // one quantum's trace slices
}

// record accounts n consecutive identical quanta, the first starting at
// s.StartUsec, during each of which threads ran (none when idle).
func (r *recorder) record(s timeline.Sample, n int, threads []machine.ThreadStep) {
	if r.col != nil {
		r.col.RecordQuanta(s, n)
	}
	if r.tr == nil || len(threads) == 0 {
		return
	}
	r.occ = r.occ[:0]
	for _, ts := range threads {
		r.occ = append(r.occ, trace.Slice{
			CPU:      ts.CPU,
			Label:    fmt.Sprintf("%s/%d", ts.Thread.App.Instance, ts.Thread.Index),
			Speed:    ts.Speed,
			Migrated: ts.Migrated,
		})
	}
	r.tr.RecordQuanta(s, r.occ, n)
}

// Run executes apps under s until every finite application completes.
// Endless applications (the microbenchmarks) run for the duration and
// are discarded at the end, exactly as the paper's workloads do.
func Run(cfg Config, s sched.Scheduler, apps []*workload.App) (Result, error) {
	if cfg.Engine == EngineShadow {
		return runShadow(cfg, s, apps)
	}
	return run(cfg, s, apps)
}

// run is the simulation loop shared by both engines: EngineQuantum
// steps every quantum; EngineEvent additionally leaps across stretches
// proven constant (see engine.go).
func run(cfg Config, s sched.Scheduler, apps []*workload.App) (Result, error) {
	if s == nil {
		return Result{}, errors.New("sim: nil scheduler")
	}
	if len(apps) == 0 {
		return Result{}, errors.New("sim: no applications")
	}
	if cfg.Machine.NumCPUs == 0 {
		cfg.Machine = machine.DefaultConfig()
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = DefaultMaxTime
	}
	if err := cfg.Faults.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	// inj is nil for a zero fault config; every consultation below is
	// nil-safe and draws nothing, so the no-fault path is unchanged.
	inj := faults.New(cfg.Faults)
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return Result{}, err
	}
	// The run is the machine's only user: its bus model goes back to
	// the pool, warm, for the next run.
	defer m.Release()

	states := make([]*appState, len(apps))
	byApp := make(map[*workload.App]*appState, len(apps))
	var pending []*appState
	// connected tracks the scheduler's queue depth (jobs added and not
	// yet removed) for the timeline's runnable series.
	connected := 0
	for i, app := range apps {
		if app == nil {
			return Result{}, fmt.Errorf("sim: nil app at index %d", i)
		}
		if app.Arrived < 0 {
			return Result{}, fmt.Errorf("sim: app %s has negative arrival time", app.Instance)
		}
		st := wire(s, app, m.Now(), inj)
		states[i] = st
		byApp[app] = st
		if app.Arrived == 0 {
			s.Add(st.job)
			connected++
		} else {
			// Dynamic arrival: the application connects to the
			// scheduler when its arrival time passes, like a process
			// connecting to the paper's CPU manager mid-run.
			pending = append(pending, st)
		}
	}

	res := Result{Scheduler: s.Name()}
	quantum := s.Quantum()
	if quantum <= 0 {
		return Result{}, fmt.Errorf("sim: scheduler %s has non-positive quantum", s.Name())
	}

	// remaining counts only the base workload: the run ends when it
	// completes, whatever the scenario is still churning. Counted
	// before scenario states are appended.
	remaining := 0
	for _, st := range states {
		if !st.app.Profile.Endless() {
			remaining++
		}
	}
	if remaining == 0 {
		return Result{}, errors.New("sim: workload has no finite applications")
	}

	// Materialize scenario churn: every arrival becomes a pending
	// appState admitted through the same path as timed arrivals (so a
	// t=0 churn event and an Arrived app are indistinguishable to the
	// scheduler); departures queue up for the loop to pop in time
	// order. The schedule is read-only — shadow mode runs both cores
	// against the same one.
	var depEvents []scenario.Event
	depIdx := 0
	byInstance := map[string]*appState{}
	if cfg.Scenario != nil {
		for _, ev := range cfg.Scenario.Events {
			if ev.At < 0 {
				return Result{}, fmt.Errorf("sim: scenario event %s at negative time", ev.Instance)
			}
			switch ev.Kind {
			case scenario.EventArrive:
				p, ok := workload.ByName(ev.Profile)
				if !ok {
					return Result{}, fmt.Errorf("sim: scenario profile %q unknown", ev.Profile)
				}
				app := workload.NewApp(p, ev.Instance)
				app.Arrived = ev.At
				st := wire(s, app, m.Now(), inj)
				st.scenario = true
				states = append(states, st)
				byApp[app] = st
				byInstance[ev.Instance] = st
				pending = append(pending, st)
			case scenario.EventDepart:
				if byInstance[ev.Instance] == nil {
					return Result{}, fmt.Errorf("sim: scenario departure of unknown instance %q", ev.Instance)
				}
				depEvents = append(depEvents, ev)
			}
		}
		for i := 1; i < len(depEvents); i++ {
			if depEvents[i].At < depEvents[i-1].At {
				return Result{}, errors.New("sim: scenario events out of order")
			}
		}
	}

	// The event engine may leap only when fault injection is off: every
	// injector consultation draws from a seeded RNG, so skipping quanta
	// would shift the draw sequence. This is also the documented
	// degradation contract — fault runs step every quantum.
	leapable := cfg.Engine == EngineEvent && inj == nil
	var finite []*appState
	var ls leapScratch
	if leapable {
		ls = newLeapScratch(cfg.Machine.NumCPUs)
		for _, st := range states {
			if !st.app.Profile.Endless() {
				finite = append(finite, st)
			}
		}
	}

	rec := recorder{col: cfg.Timeline, tr: cfg.Trace}
	var utilSum float64
	var prevFaults uint64
	for remaining > 0 {
		if m.Now() >= cfg.MaxTime {
			res.TimedOut = true
			break
		}
		// Admit newly arrived applications.
		kept := pending[:0]
		for _, st := range pending {
			if st.app.Arrived <= m.Now() {
				s.Add(st.job)
				connected++
				if st.scenario {
					res.ScenarioArrivals++
				}
			} else {
				kept = append(kept, st)
			}
		}
		pending = kept
		// Pop due scenario departures. Admission ran first, so a
		// departing instance is either connected (remove it) or already
		// completed on its own (a no-op — natural completion wins).
		// Departures of completed instances are not counted, which
		// keeps both engines' counters identical even when leapIdle has
		// jumped the clock past a no-op departure's exact quantum.
		for depIdx < len(depEvents) && depEvents[depIdx].At <= m.Now() {
			st := byInstance[depEvents[depIdx].Instance]
			depIdx++
			if st.departed || st.app.IsMarkedCompleted() {
				continue
			}
			s.Remove(st.job)
			connected--
			st.departed = true
			res.ScenarioDepartures++
		}
		placements := s.Schedule(m)
		if len(placements) > 0 && (inj.CrashEnabled() || inj.SignalLossEnabled()) {
			// Control-channel faults, decided per application in input
			// order (deterministic draw sequence). A crash models the
			// client (run-time library) dying mid-quantum: the gang
			// misses the quantum and its scheduler-side sampling
			// history is gone when it reconnects. A dropped signal
			// models a lost unblock: the manager admitted the gang but
			// it never woke, so its processors idle for one quantum —
			// the expensive direction of signal loss. The whole block
			// is gated on those two fault classes having nonzero
			// rates: with them disabled no flag is touched, no draw is
			// made, and the clean path allocates nothing.
			for _, p := range placements {
				byApp[p.Thread.App].present = true
			}
			anyLost := false
			for _, st := range states {
				if !st.present {
					continue
				}
				st.present = false
				if inj.Crash() {
					st.lost = true
					anyLost = true
					st.job.ResetSamples()
					continue
				}
				if inj.DropSignal() {
					st.lost = true
					anyLost = true
				}
			}
			if anyLost {
				kept := placements[:0]
				for _, p := range placements {
					if !byApp[p.Thread.App].lost {
						kept = append(kept, p)
					}
				}
				placements = kept
				for _, st := range states {
					st.lost = false
				}
			}
		}
		var step machine.StepResult
		if len(placements) == 0 {
			if err := m.Advance(quantum, 1); err != nil {
				return Result{}, err
			}
		} else {
			// Charge the CPU-manager overhead before the quantum runs,
			// so it is paid at the thread's contended speed.
			if cfg.ManagerOverhead > 0 {
				for _, p := range placements {
					p.Thread.AddDebt(float64(cfg.ManagerOverhead))
				}
			}
			step, err = m.Step(placements, quantum)
			if err != nil {
				return Result{}, fmt.Errorf("sim: quantum %d: %w", res.Quanta, err)
			}
		}
		res.Quanta++
		res.Migrations += step.Migrations
		res.ContextSwitches += step.ContextSwitches
		utilSum += step.MeanUtilization

		// Sampling: poll every thread of every app (resetting deltas),
		// but only applications that ran this quantum contribute a
		// bandwidth sample, per the paper's "updates the bus bandwidth
		// consumption statistics for all running jobs".
		for _, ts := range step.Threads {
			byApp[ts.Thread.App].accrue(ts.Speed, ts.Rate)
		}
		admitted := 0
		for _, st := range states {
			var appTrans uint64
			for ti := range st.app.Threads {
				rate, ok := st.monitors[ti].Poll(m.Now())
				if !ok {
					continue
				}
				// The explicit float64 rounds the product before the
				// conversion, which must not fuse with it (see
				// workload.Thread.AccrueCounters).
				appTrans += uint64(float64(rate * float64(quantum)))
			}
			perThread, ran := st.sample(cfg.Sampling, appTrans, quantum)
			st.sampled, st.qTrans = ran, appTrans
			if ran {
				admitted++
				// A lost publish (the run-time library missed its arena
				// slot) starves the policy of this quantum's sample;
				// noise perturbs what does get published. Both are
				// no-ops without an injector.
				if !inj.DropSample() {
					st.job.PushSample(units.Rate(inj.PerturbSample(perThread)))
				}
				st.runTime += quantum
				st.trans += appTrans
			}
		}

		// Record the quantum after sampling, so admission reflects what
		// actually ran (crash and signal-loss drops included), and
		// before retirement, so the runnable depth is the queue the
		// scheduler just saw.
		tot := inj.Stats().Total()
		rec.record(timeline.Sample{
			StartUsec:   int64(m.Now() - quantum),
			DurUsec:     int64(quantum),
			Utilization: step.MeanUtilization,
			Served:      float64(step.MeanServed),
			Stretch:     step.Stretch,
			Placed:      len(step.Threads),
			Runnable:    connected,
			Admitted:    admitted,
			Faults:      int64(tot - prevFaults),
		}, 1, step.Threads)
		prevFaults = tot

		// Event engine: the quantum just stepped is the probe that
		// anchors a stretch. If the scheduler is provably stable and
		// the machine hands out the probe as a replayable plan, leap
		// across the quanta that would repeat it bitwise; otherwise
		// this falls through and the loop keeps stepping. Placed after
		// the record (the probe is already accounted) and before
		// retirement (a leap ends at or before any completion, which
		// the block below then handles).
		if leapable {
			// Churn gating: a pending arrival or an outstanding departure
			// event means the mix is still unstable — a leap could carry
			// the machine past the event. Keep stepping; once the
			// scenario schedule drains (depIdx catches up and pending
			// empties) leaps resume for the settled mix.
			if len(placements) > 0 && len(pending) == 0 && depIdx == len(depEvents) && cfg.ManagerOverhead <= 0 {
				if err := ls.tryLeap(&cfg, &rec, s, m, quantum, placements, states, finite, connected, admitted, &res, &utilSum); err != nil {
					return Result{}, err
				}
			} else if len(placements) == 0 && connected == 0 && len(pending) > 0 {
				if err := leapIdle(cfg.MaxTime, &rec, m, quantum, states, pending, &res); err != nil {
					return Result{}, err
				}
			}
		}

		// Retire finished applications. Departed instances are out of
		// the scheduler already and frozen, so they never re-retire.
		for _, st := range states {
			if !st.app.Profile.Endless() && !st.departed && st.app.Done() && !st.app.IsMarkedCompleted() {
				st.app.MarkCompleted(m.Now())
				s.Remove(st.job)
				connected--
				if st.scenario {
					res.ScenarioCompleted++
				} else {
					remaining--
				}
			}
		}
	}
	res.EndTime = m.Now()
	if cfg.Timeline != nil {
		cfg.Timeline.Seal()
	}
	if res.Quanta > 0 {
		res.MeanBusUtilization = utilSum / float64(res.Quanta)
	}
	res.FaultStats = inj.Stats()

	for _, st := range states {
		if st.app.Profile.Endless() {
			if !st.scenario && res.EndTime > 0 {
				var trans uint64
				for _, th := range st.app.Threads {
					trans += th.Counters.Read()
				}
				res.MicrobenchRates = append(res.MicrobenchRates, units.Rate(float64(trans)/float64(res.EndTime)))
			}
			continue
		}
		// Scenario instances are reported only if they completed
		// naturally: a departed or still-running instance has no
		// turnaround and would deflate the headline mean.
		if st.scenario && !st.app.IsMarkedCompleted() {
			continue
		}
		ar := AppResult{
			Instance:     st.app.Instance,
			Profile:      st.app.Profile.Name,
			Arrived:      st.app.Arrived,
			Turnaround:   st.app.Turnaround(),
			SoloTime:     st.app.Profile.SoloTime,
			RunTime:      st.runTime,
			Transactions: st.trans,
		}
		if ar.SoloTime > 0 && ar.Turnaround > 0 {
			ar.Slowdown = float64(ar.Turnaround) / float64(ar.SoloTime)
		}
		if st.runTime > 0 {
			ar.MeanBusRate = units.Rate(float64(st.trans) / float64(st.runTime))
		}
		res.Apps = append(res.Apps, ar)
	}
	return res, nil
}
