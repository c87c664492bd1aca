package sim

import (
	"math"
	"slices"
	"testing"

	"busaware/internal/faults"
	"busaware/internal/machine"
	"busaware/internal/sched"
	"busaware/internal/timeline"
	"busaware/internal/trace"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// runBothEngines executes the same workload under the quantum and
// event engines, each with its own timeline collector and Chrome trace,
// and fails the test on any bitwise divergence in the Result, the
// timeline windows or the trace bytes. It returns the event-engine
// result so callers can assert that leaping actually happened.
func runBothEngines(t *testing.T, cfg Config, mkSched func() sched.Scheduler, mkApps func() []*workload.App) Result {
	t.Helper()
	cfgQ := cfg
	cfgQ.Engine = EngineQuantum
	cfgQ.Timeline = timeline.MustNew(timeline.Config{QuantaPerWindow: 16})
	cfgQ.Trace = &trace.Timeline{}
	resQ, errQ := Run(cfgQ, mkSched(), mkApps())

	cfgE := cfg
	cfgE.Engine = EngineEvent
	cfgE.Timeline = timeline.MustNew(timeline.Config{QuantaPerWindow: 16})
	cfgE.Trace = &trace.Timeline{}
	resE, errE := Run(cfgE, mkSched(), mkApps())

	if (errQ == nil) != (errE == nil) {
		t.Fatalf("error divergence: quantum=%v event=%v", errQ, errE)
	}
	if errQ != nil {
		return resE
	}
	if cfgQ.Trace.Len() == 0 {
		t.Error("traced run recorded no slices")
	}
	diffs := diffRuns(resQ, resE, &cfgQ, &cfgE)
	for i, d := range diffs {
		if i >= 10 {
			t.Errorf("... and %d more diffs", len(diffs)-i)
			break
		}
		t.Errorf("engine diff: %s", d)
	}
	return resE
}

func TestEventEngineBitIdentical(t *testing.T) {
	paper := func(name string) workload.Profile {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no profile %q", name)
		}
		return p
	}
	cases := []struct {
		name     string
		cfg      Config
		mkSched  func() sched.Scheduler
		mkApps   func() []*workload.App
		wantLeap bool
	}{
		{
			name:    "solo gang",
			mkSched: func() sched.Scheduler { return policy("gang") },
			mkApps: func() []*workload.App {
				return []*workload.App{workload.NewApp(paper("Volrend"), "V#1")}
			},
			wantLeap: true,
		},
		{
			name:    "fitting pair under latest quantum",
			mkSched: func() sched.Scheduler { return policy("latest") },
			mkApps: func() []*workload.App {
				return []*workload.App{
					workload.NewApp(paper("Volrend"), "V#1"),
					workload.NewApp(paper("Radiosity"), "R#1"),
				}
			},
			wantLeap: true,
		},
		{
			name:    "fitting pair under quanta window",
			mkSched: func() sched.Scheduler { return policy("window") },
			mkApps: func() []*workload.App {
				return []*workload.App{
					workload.NewApp(paper("Volrend"), "V#1"),
					workload.NewApp(paper("Water-nsqr"), "W#1"),
				}
			},
			wantLeap: true,
		},
		{
			name:    "ewma estimator",
			mkSched: func() sched.Scheduler { return policy("ewma") },
			mkApps: func() []*workload.App {
				return []*workload.App{
					workload.NewApp(paper("Volrend"), "V#1"),
					workload.NewApp(paper("Radiosity"), "R#1"),
				}
			},
		},
		{
			name:    "oracle estimator",
			mkSched: func() sched.Scheduler { return policy("oracle") },
			mkApps: func() []*workload.App {
				return []*workload.App{
					workload.NewApp(paper("Volrend"), "V#1"),
					workload.NewApp(paper("Radiosity"), "R#1"),
				}
			},
			wantLeap: true,
		},
		{
			name:    "multi-phase bursty app",
			mkSched: func() sched.Scheduler { return policy("latest") },
			mkApps: func() []*workload.App {
				return []*workload.App{
					workload.NewApp(paper("Raytrace"), "RT#1"),
					workload.NewApp(paper("LU CB"), "LU#1"),
				}
			},
		},
		{
			name:    "oversubscribed saturated mix",
			mkSched: func() sched.Scheduler { return policy("latest") },
			mkApps: func() []*workload.App {
				return []*workload.App{
					workload.NewApp(paper("CG"), "CG#1"),
					workload.NewApp(paper("CG"), "CG#2"),
					workload.NewApp(workload.BBMA(), "B#1"),
					workload.NewApp(workload.BBMA(), "B#2"),
				}
			},
		},
		{
			name:    "linux baseline never leaps",
			mkSched: func() sched.Scheduler { return policy("linux") },
			mkApps: func() []*workload.App {
				return []*workload.App{
					workload.NewApp(paper("CG"), "CG#1"),
					workload.NewApp(workload.BBMA(), "B#1"),
				}
			},
		},
		{
			name:    "round robin",
			mkSched: func() sched.Scheduler { return policy("rr") },
			mkApps: func() []*workload.App {
				return []*workload.App{
					workload.NewApp(paper("Volrend"), "V#1"),
					workload.NewApp(paper("Radiosity"), "R#1"),
				}
			},
			wantLeap: true,
		},
		{
			name: "dynamic arrival with idle gap",
			mkSched: func() sched.Scheduler {
				return policy("window")
			},
			mkApps: func() []*workload.App {
				early := workload.NewApp(paper("Volrend"), "V#early")
				late := workload.NewApp(paper("Volrend"), "V#late")
				late.Arrived = 20 * units.Second
				return []*workload.App{early, late}
			},
			wantLeap: true,
		},
		{
			name:    "timeout guard mid-stretch",
			cfg:     Config{MaxTime: 3 * units.Second},
			mkSched: func() sched.Scheduler { return policy("gang") },
			mkApps: func() []*workload.App {
				return []*workload.App{workload.NewApp(paper("CG"), "CG#1")}
			},
			wantLeap: true,
		},
		{
			name: "faults degrade to stepping",
			cfg: Config{
				Faults: faults.Config{Seed: 7, SampleLoss: 0.1, CounterNoise: 0.1},
			},
			mkSched: func() sched.Scheduler { return policy("window") },
			mkApps: func() []*workload.App {
				return []*workload.App{
					workload.NewApp(paper("Volrend"), "V#1"),
					workload.NewApp(workload.BBMA(), "B#1"),
				}
			},
		},
		{
			name:    "manager overhead degrades to stepping",
			cfg:     Config{ManagerOverhead: 4 * units.Millisecond},
			mkSched: func() sched.Scheduler { return policy("gang") },
			mkApps: func() []*workload.App {
				return []*workload.App{workload.NewApp(paper("Volrend"), "V#1")}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runBothEngines(t, tc.cfg, tc.mkSched, tc.mkApps)
			if tc.wantLeap && res.LeaptQuanta == 0 {
				t.Error("event engine never leapt on a leapable workload")
			}
			if tc.cfg.Faults != (faults.Config{}) && res.LeaptQuanta != 0 {
				t.Error("event engine leapt despite fault injection")
			}
		})
	}
}

// TestShadowEngine pins the shadow contract: divergence-free runs
// succeed and a missing scheduler factory is an error.
func TestShadowEngine(t *testing.T) {
	mkApps := func() []*workload.App {
		p, _ := workload.ByName("Volrend")
		r, _ := workload.ByName("Radiosity")
		return []*workload.App{
			workload.NewApp(p, "V#1"),
			workload.NewApp(r, "R#1"),
		}
	}
	factory := func() (sched.Scheduler, error) {
		return policy("window"), nil
	}

	cfg := Config{
		Engine:           EngineShadow,
		SchedulerFactory: factory,
	}
	s, _ := factory()
	res, err := Run(cfg, s, mkApps())
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaptQuanta != 0 {
		t.Error("authoritative shadow result must come from the stepped core")
	}
	if len(res.Apps) != 2 || res.Quanta == 0 {
		t.Errorf("implausible shadow result: %+v", res)
	}

	s2, _ := factory()
	if _, err := Run(Config{Engine: EngineShadow}, s2, mkApps()); err == nil {
		t.Error("shadow without a scheduler factory must fail")
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EngineKind
		ok   bool
	}{
		{"", EngineQuantum, true},
		{"quantum", EngineQuantum, true},
		{"event", EngineEvent, true},
		{"shadow", EngineShadow, true},
		{"warp", EngineQuantum, false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, k := range []EngineKind{EngineQuantum, EngineEvent, EngineShadow, EngineKind(42)} {
		if k.String() == "" {
			t.Errorf("empty String for %d", int(k))
		}
	}
}

// mkPlanThread builds a synthetic stretch-plan entry for horizon tests:
// a thread advanced to the given progress, with uniform per-micro-step
// solo advances.
func mkPlanThread(t *testing.T, prof workload.Profile, progress float64, subs []float64) machine.ThreadStep {
	t.Helper()
	app := workload.NewApp(prof, prof.Name+"#h")
	th := app.Threads[0]
	if progress > 0 {
		th.AdvanceWork(progress)
	}
	return machine.ThreadStep{Thread: th, SoloPerSub: subs}
}

// TestLeapHorizon is the table-driven next-event computation check:
// time guard, completion, phase boundaries landing exactly on quantum
// edges, events within one quantum (horizon 0 — the engine steps), and
// single-quantum stretches (a leap of 1 equals a plain step).
func TestLeapHorizon(t *testing.T) {
	const q = 200 * units.Millisecond // 200_000 usec
	subs := func(v float64, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	uni := workload.Profile{
		Name: "uni", Threads: 1, SoloTime: 100 * units.Second,
		Phases: []workload.Phase{{Duration: 100 * units.Second, Demand: 1}},
	}
	twoPhase := workload.Profile{
		Name: "two", Threads: 1, SoloTime: 100 * units.Second,
		Phases: []workload.Phase{
			{Duration: 1 * units.Second, Demand: 1},
			{Duration: 1 * units.Second, Demand: 5},
		},
	}
	endless := workload.Profile{
		Name: "endless", Threads: 1,
		Phases: []workload.Phase{{Duration: units.Second, Demand: 1}},
	}

	cases := []struct {
		name    string
		plan    machine.StepResult
		now     units.Time
		maxTime units.Time
		want    int
	}{
		{
			// No thread progress: only the MaxTime guard bounds the
			// leap, and it rounds up to whole quanta.
			name: "time guard only",
			plan: machine.StepResult{
				Elapsed: q,
				Threads: []machine.ThreadStep{mkPlanThread(t, endless, 0, subs(0, 20))},
			},
			now: 0, maxTime: 10*q + q/2,
			want: 11,
		},
		{
			name:    "at max time",
			plan:    machine.StepResult{Elapsed: q},
			now:     units.Second,
			maxTime: units.Second,
			want:    0,
		},
		{
			// Full-speed uniform thread, 10.5 quanta of work left: the
			// bound is exact — 10 replayed quanta provably stay short of
			// completion, and the completing quantum runs stepped.
			name: "completion bound",
			plan: machine.StepResult{
				Elapsed: q,
				Threads: []machine.ThreadStep{
					mkPlanThread(t, uni, float64(100*units.Second)-10.5*float64(q), subs(10_000, 20)),
				},
			},
			now: 0, maxTime: DefaultMaxTime,
			want: 10,
		},
		{
			// Completion within the next quantum: no leap at all — the
			// engine falls back to stepping (a "stretch" of zero).
			name: "completion imminent",
			plan: machine.StepResult{
				Elapsed: q,
				Threads: []machine.ThreadStep{
					mkPlanThread(t, uni, float64(100*units.Second)-0.5*float64(q), subs(10_000, 20)),
				},
			},
			now: 0, maxTime: DefaultMaxTime,
			want: 0,
		},
		{
			// Two events at the same timestamp: the thread sits exactly
			// on a phase boundary (phaseUsed == 0 after a wrap), which
			// coincides with the per-quantum sample tick. The phase is 5
			// quanta of work; float slack rounds 5.0 down to 4 whole
			// quanta and the boundary-crossing quantum is excluded: 3.
			name: "phase boundary on quantum edge",
			plan: machine.StepResult{
				Elapsed: q,
				Threads: []machine.ThreadStep{
					mkPlanThread(t, twoPhase, float64(2*units.Second), subs(10_000, 20)),
				},
			},
			now: 0, maxTime: DefaultMaxTime,
			want: 3,
		},
		{
			// Phase boundary lands inside the very next quantum: the
			// engine must refuse to leap (Step re-reads demands every
			// micro-step, so that quantum is not replayable).
			name: "phase boundary imminent",
			plan: machine.StepResult{
				Elapsed: q,
				Threads: []machine.ThreadStep{
					mkPlanThread(t, twoPhase, float64(units.Second)-0.3*float64(q), subs(10_000, 20)),
				},
			},
			now: 0, maxTime: DefaultMaxTime,
			want: 0,
		},
		{
			// Single-quantum stretch: 1.75 quanta of work left leaves
			// exactly enough room for a leap of one, which must behave
			// like one plain step.
			name: "single quantum stretch",
			plan: machine.StepResult{
				Elapsed: q,
				Threads: []machine.ThreadStep{
					mkPlanThread(t, uni, float64(100*units.Second)-1.75*float64(q), subs(10_000, 20)),
				},
			},
			now: 0, maxTime: DefaultMaxTime,
			want: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := leapHorizon(&tc.plan, tc.now, tc.maxTime); got != tc.want {
				t.Errorf("leapHorizon = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestLeapHorizonBarrier covers the barrier bounds: a gang in bitwise
// lockstep is unbounded by its barriers, while any asymmetry bounds
// the leap by the laggard's headroom.
func TestLeapHorizonBarrier(t *testing.T) {
	const q = 200 * units.Millisecond
	prof := workload.Profile{
		Name: "gang", Threads: 2, SoloTime: 100 * units.Second,
		Phases:          []workload.Phase{{Duration: 100 * units.Second, Demand: 1}},
		BarrierInterval: units.Second,
	}
	subs := make([]float64, 20)
	for i := range subs {
		subs[i] = 10_000
	}
	app := workload.NewApp(prof, "G#1")
	mk := func() machine.StepResult {
		return machine.StepResult{
			Elapsed: q,
			Threads: []machine.ThreadStep{
				{Thread: app.Threads[0], SoloPerSub: subs},
				{Thread: app.Threads[1], SoloPerSub: subs},
			},
		}
	}

	// Lockstep: equal progress, equal advances — the time guard is the
	// only bound even though the barrier interval is 5 quanta of work.
	plan := mk()
	if got := leapHorizon(&plan, 0, 20*q); got != 20 {
		t.Errorf("lockstep horizon = %d, want 20", got)
	}

	// Skew one sibling: the barrier bound kicks in. Thread 0 is half a
	// quantum of work ahead, so its headroom to progress is interval
	// minus nothing for thread 1 (the laggard has a full interval plus
	// the skew) — the leader's headroom bounds the leap.
	app.Threads[0].AdvanceWork(5_000)
	plan = mk()
	got := leapHorizon(&plan, 0, 20*q)
	if got >= 20 || got < 1 {
		t.Errorf("skewed-gang horizon = %d, want within (0, 20)", got)
	}

	// A sibling already at its barrier cap within the next quantum:
	// no leap.
	app.Threads[0].AdvanceWork(float64(units.Second) - 5_000 - 100_000)
	plan = mk()
	if got := leapHorizon(&plan, 0, 20*q); got != 0 {
		t.Errorf("barrier-imminent horizon = %d, want 0", got)
	}
}

// TestReplayTwins pins lockstep replay: siblings at bitwise-equal
// progress and phase position with bitwise-equal advances share one
// replay, a sibling that differs only in phaseUsed does not, and every
// thread ends each replayed quantum bitwise where its own ReplayAdvance
// puts it, across phase wraps.
func TestReplayTwins(t *testing.T) {
	prof := workload.Profile{
		Name: "gang", Threads: 3, SoloTime: 100 * units.Second,
		Phases:          []workload.Phase{{Duration: 100, Demand: 1}, {Duration: 250, Demand: 2, StallFrac: 0.5}},
		BarrierInterval: units.Second,
	}
	// Threads 0 and 1 advance alike. Thread 2 takes the same two
	// advances in the other order: the same progress (addition
	// commutes), but its phase wraps at a different point, so phaseUsed
	// rounds differently.
	mk := func() *workload.App {
		app := workload.NewApp(prof, "G#1")
		for _, th := range app.Threads[:2] {
			th.AdvanceWork(100.3)
			th.AdvanceWork(0.1)
		}
		app.Threads[2].AdvanceWork(0.1)
		app.Threads[2].AdvanceWork(100.3)
		return app
	}
	app, ref := mk(), mk()
	th := app.Threads
	_, used0 := th[0].PhasePos()
	_, used2 := th[2].PhasePos()
	if th[2].Progress() != th[0].Progress() || used2 == used0 {
		t.Fatalf("setup: progress %v/%v, phaseUsed %v/%v; want equal progress, different phaseUsed",
			th[0].Progress(), th[2].Progress(), used0, used2)
	}
	subs := []float64{7.3, 7.3, 7.3, 7.3, 7.3, 7.3, 7.3, 7.3, 7.3, 7.3}
	plan := machine.StepResult{Threads: []machine.ThreadStep{
		{Thread: th[0], SoloPerSub: subs},
		{Thread: th[1], SoloPerSub: append([]float64(nil), subs...)},
		{Thread: th[2], SoloPerSub: subs},
	}}
	ls := newLeapScratch(4)
	ls.prepare(&plan)
	if want := []int{-1, 0, -1}; !slices.Equal(ls.twin, want) {
		t.Fatalf("twins = %v, want %v", ls.twin, want)
	}
	for q := range 100 {
		ls.replayQuantum(&plan)
		for i, r := range ref.Threads {
			r.ReplayAdvance(subs)
			gi, gu := th[i].PhasePos()
			wi, wu := r.PhasePos()
			if math.Float64bits(th[i].Progress()) != math.Float64bits(r.Progress()) || gi != wi ||
				math.Float64bits(gu) != math.Float64bits(wu) || th[i].CurrentPhase() != r.CurrentPhase() {
				t.Fatalf("quantum %d thread %d: progress %v phase %d/%v, own replay %v phase %d/%v",
					q, i, th[i].Progress(), gi, gu, r.Progress(), wi, wu)
			}
		}
	}
}
