package sim

import (
	"math"
	"testing"

	"busaware/internal/faults"
	"busaware/internal/machine"
	"busaware/internal/sched"
	"busaware/internal/timeline"
	"busaware/internal/trace"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// policy builds the named policy for the paper machine through the
// policy table, as every production caller does.
func policy(name string) sched.Scheduler {
	s, err := sched.New(name, machine.DefaultConfig(), 1, sched.Params{})
	if err != nil {
		panic(err)
	}
	return s
}

func profile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return p
}

func TestRunValidation(t *testing.T) {
	app := workload.NewApp(profile(t, "CG"), "CG#1")
	if _, err := Run(Config{}, nil, []*workload.App{app}); err == nil {
		t.Error("nil scheduler accepted")
	}
	s := policy("gang")
	if _, err := Run(Config{}, s, nil); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := Run(Config{}, policy("gang"), []*workload.App{nil}); err == nil {
		t.Error("nil app accepted")
	}
	// All-endless workloads can never finish.
	if _, err := Run(Config{}, policy("gang"), []*workload.App{workload.NewApp(workload.BBMA(), "B#1")}); err == nil {
		t.Error("endless-only workload accepted")
	}
}

func TestSoloRunMatchesSoloTime(t *testing.T) {
	// An app alone on the machine should complete in ~its solo time
	// (within quantum granularity and mild self-contention).
	app := workload.NewApp(profile(t, "Volrend"), "V#1")
	res, err := Run(Config{}, policy("gang"), []*workload.App{app})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("solo run timed out")
	}
	slow := res.Apps[0].Slowdown
	if slow < 0.99 || slow > 1.15 {
		t.Errorf("solo slowdown = %.3f, want ~1", slow)
	}
}

func TestSoloRunAchievesCalibratedRate(t *testing.T) {
	// Figure 1A black bars: the solo cumulative rate should match the
	// registry calibration.
	for _, name := range []string{"Radiosity", "CG", "SP"} {
		p := profile(t, name)
		app := workload.NewApp(p, name+"#1")
		res, err := Run(Config{}, policy("gang"), []*workload.App{app})
		if err != nil {
			t.Fatal(err)
		}
		got := float64(res.Apps[0].MeanBusRate)
		want := float64(p.SoloRate())
		if math.Abs(got-want)/want > 0.12 {
			t.Errorf("%s solo rate = %.2f, want ~%.2f", name, got, want)
		}
	}
}

func TestSaturatedWorkloadSlowdown(t *testing.T) {
	// CG + 2 BBMA on the Linux scheduler: the app must suffer a
	// multi-fold slowdown (Figure 1B light-gray bars plus
	// time-sharing, since 4 threads + 2 microbenchmarks share 4 CPUs
	// in this reduced setup).
	apps := []*workload.App{
		workload.NewApp(profile(t, "CG"), "CG#1"),
		workload.NewApp(workload.BBMA(), "B#1"),
		workload.NewApp(workload.BBMA(), "B#2"),
	}
	res, err := Run(Config{}, policy("linux"), apps)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if res.Apps[0].Slowdown < 1.5 {
		t.Errorf("CG slowdown with 2 BBMA = %.2f, want substantial", res.Apps[0].Slowdown)
	}
	if res.MeanBusUtilization < 0.5 {
		t.Errorf("bus utilization = %.2f, want high", res.MeanBusUtilization)
	}
}

func TestPolicyBeatsLinuxOnSaturatedMix(t *testing.T) {
	// The paper's core claim, in miniature: 2 CG instances + 4 BBMA.
	mkApps := func() []*workload.App {
		return []*workload.App{
			workload.NewApp(profile(t, "CG"), "CG#1"),
			workload.NewApp(profile(t, "CG"), "CG#2"),
			workload.NewApp(workload.BBMA(), "B#1"),
			workload.NewApp(workload.BBMA(), "B#2"),
			workload.NewApp(workload.BBMA(), "B#3"),
			workload.NewApp(workload.BBMA(), "B#4"),
		}
	}
	linux, err := Run(Config{}, policy("linux"), mkApps())
	if err != nil {
		t.Fatal(err)
	}
	lq, err := Run(Config{}, policy("latest"), mkApps())
	if err != nil {
		t.Fatal(err)
	}
	if linux.TimedOut || lq.TimedOut {
		t.Fatal("timed out")
	}
	if lq.MeanTurnaround() >= linux.MeanTurnaround() {
		t.Errorf("LatestQuantum (%v) should beat Linux (%v) on the saturated mix",
			lq.MeanTurnaround(), linux.MeanTurnaround())
	}
}

func TestManagerOverheadCostsSomething(t *testing.T) {
	mk := func() []*workload.App {
		return []*workload.App{workload.NewApp(profile(t, "Volrend"), "V#1")}
	}
	free, err := Run(Config{}, policy("gang"), mk())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Run(Config{ManagerOverhead: 4 * units.Millisecond}, policy("gang"), mk())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.MeanTurnaround() <= free.MeanTurnaround() {
		t.Error("manager overhead should lengthen turnaround")
	}
	// 4ms per 200ms quantum ~ 2%: the effect must stay bounded.
	ratio := float64(loaded.MeanTurnaround()) / float64(free.MeanTurnaround())
	if ratio > 1.10 {
		t.Errorf("overhead ratio = %.3f, want <= 1.10", ratio)
	}
}

func TestTimeoutGuard(t *testing.T) {
	apps := []*workload.App{workload.NewApp(profile(t, "CG"), "CG#1")}
	res, err := Run(Config{MaxTime: 400 * units.Millisecond}, policy("gang"), apps)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("13s app in 400ms budget should time out")
	}
	if res.Apps[0].Turnaround != 0 {
		t.Error("unfinished app should have zero turnaround")
	}
}

func TestMicrobenchRates(t *testing.T) {
	apps := []*workload.App{
		workload.NewApp(workload.BBMA(), "B#1"),
		workload.NewApp(profile(t, "Volrend"), "V#1"),
		workload.NewApp(workload.NBBMA(), "n#1"),
	}
	res, err := Run(Config{}, policy("gang"), apps)
	if err != nil {
		t.Fatal(err)
	}
	// One rate per endless app, in input order, each its counted
	// transactions over the run.
	endless := []*workload.App{apps[0], apps[2]}
	if len(res.MicrobenchRates) != len(endless) {
		t.Fatalf("%d microbenchmark rates, want %d", len(res.MicrobenchRates), len(endless))
	}
	for i, a := range endless {
		var trans uint64
		for _, th := range a.Threads {
			trans += th.Counters.Read()
		}
		if want := units.Rate(float64(trans) / float64(res.EndTime)); res.MicrobenchRates[i] != want {
			t.Errorf("%s: rate %v, want %v", a.Instance, res.MicrobenchRates[i], want)
		}
	}
	if r := float64(res.MicrobenchRates[0]); r < 10 {
		t.Errorf("BBMA achieved %.2f trans/us, want substantial", r)
	}
	if res.MicrobenchRates[1] >= res.MicrobenchRates[0] {
		t.Errorf("nBBMA rate %v not below BBMA's %v", res.MicrobenchRates[1], res.MicrobenchRates[0])
	}
}

func TestResultBookkeeping(t *testing.T) {
	apps := []*workload.App{
		workload.NewApp(profile(t, "Volrend"), "V#1"),
		workload.NewApp(profile(t, "Radiosity"), "R#1"),
	}
	res, err := Run(Config{}, policy("window"), apps)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("app results = %d", len(res.Apps))
	}
	if res.Scheduler != "QuantaWindow" {
		t.Error(res.Scheduler)
	}
	if res.Quanta == 0 || res.EndTime == 0 {
		t.Error("no quanta recorded")
	}
	for _, a := range res.Apps {
		if a.Turnaround <= 0 || a.Transactions == 0 || a.RunTime <= 0 {
			t.Errorf("incomplete app result: %+v", a)
		}
	}
	mean := res.MeanTurnaround()
	if mean != (res.Apps[0].Turnaround+res.Apps[1].Turnaround)/2 {
		t.Error("mean turnaround arithmetic")
	}
}

func TestCustomMachineConfig(t *testing.T) {
	cfg := Config{Machine: machine.DefaultConfig()}
	cfg.Machine.NumCPUs = 2
	apps := []*workload.App{workload.NewApp(profile(t, "Volrend"), "V#1")}
	s, err := sched.New("gang", cfg.Machine, 1, sched.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, s, apps)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Error("2-CPU solo run should finish")
	}
}

func TestTimelineRecording(t *testing.T) {
	tl := &trace.Timeline{}
	apps := []*workload.App{workload.NewApp(profile(t, "Volrend"), "V#1")}
	res, err := Run(Config{Trace: tl}, policy("gang"), apps)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Len() == 0 {
		t.Fatal("timeline recorded nothing")
	}
	// Two threads per quantum for the whole run.
	if want := res.Quanta * 2; tl.Len() != want {
		t.Errorf("timeline slices = %d, want %d", tl.Len(), want)
	}
	_, end := tl.Span()
	if end != res.EndTime {
		t.Errorf("timeline end %v != run end %v", end, res.EndTime)
	}
}

// TestTimelineCollectorRecording pins the telemetry contract: one
// sample per quantum, window totals that reconcile exactly with the
// run's own bookkeeping, and identical simulation results with the
// collector attached or not.
func TestTimelineCollectorRecording(t *testing.T) {
	newApps := func() []*workload.App {
		return []*workload.App{
			workload.NewApp(profile(t, "Volrend"), "V#1"),
			workload.NewApp(workload.BBMA(), "B#1"),
		}
	}
	col, err := timeline.New(timeline.Config{QuantaPerWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Timeline: col}, policy("window"), newApps())
	if err != nil {
		t.Fatal(err)
	}
	sum := col.Summary()
	if got, want := sum.Quanta, int64(res.Quanta); got != want {
		t.Errorf("collector quanta = %d, run quanta = %d", got, want)
	}
	if got, want := int64(res.EndTime), sum.EndUsec; got != want {
		t.Errorf("collector end %d != run end %d", sum.EndUsec, got)
	}
	if sum.UtilSum <= 0 || sum.UtilMax > 1 {
		t.Errorf("bus utilization out of range: sum %v max %v", sum.UtilSum, sum.UtilMax)
	}
	// Two apps connected the whole run, so per-quantum runnable is 2
	// until Volrend retires; admitted never exceeds runnable.
	if sum.Runnable < sum.Quanta || sum.Runnable > 2*sum.Quanta {
		t.Errorf("runnable sum %d outside [%d, %d]", sum.Runnable, sum.Quanta, 2*sum.Quanta)
	}
	if sum.Admitted > sum.Runnable || sum.Admitted == 0 {
		t.Errorf("admitted sum %d vs runnable %d", sum.Admitted, sum.Runnable)
	}
	if sum.Deferred != sum.Runnable-sum.Admitted {
		t.Errorf("deferred %d != runnable-admitted %d", sum.Deferred, sum.Runnable-sum.Admitted)
	}
	if sum.Placed == 0 {
		t.Error("no threads recorded as placed")
	}

	// Telemetry must be a pure observer: the same workload without a
	// collector produces identical results.
	plain, err := Run(Config{}, policy("window"), newApps())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Quanta != res.Quanta || plain.EndTime != res.EndTime ||
		plain.MeanBusUtilization != res.MeanBusUtilization {
		t.Errorf("collector perturbed the run: %+v vs %+v", plain, res)
	}
}

// TestTimelineCollectorSeesFaults checks fault deltas flow into
// windows: a faulty run's collector must account every injected fault.
func TestTimelineCollectorSeesFaults(t *testing.T) {
	col, err := timeline.New(timeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	apps := []*workload.App{
		workload.NewApp(profile(t, "Volrend"), "V#1"),
		workload.NewApp(workload.BBMA(), "B#1"),
	}
	cfg := Config{
		Timeline: col,
		Faults:   faults.Config{Seed: 7, SampleLoss: 0.2, CounterNoise: 0.2},
	}
	res, err := Run(cfg, policy("window"), apps)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultStats.Total() == 0 {
		t.Fatal("fault config injected nothing")
	}
	if got, want := col.Summary().Faults, int64(res.FaultStats.Total()); got != want {
		t.Errorf("collector faults = %d, run injected %d", got, want)
	}
}

func TestDynamicArrivals(t *testing.T) {
	vol := profile(t, "Volrend")
	early := workload.NewApp(vol, "V#early")
	late := workload.NewApp(vol, "V#late")
	late.Arrived = 5 * units.Second
	res, err := Run(Config{}, policy("window"),
		[]*workload.App{early, late})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if late.Completed <= late.Arrived {
		t.Fatalf("late app completed %v before arriving %v", late.Completed, late.Arrived)
	}
	// Turnaround is measured from arrival, not t=0: both instances of
	// the same profile should see comparable turnarounds (the machine
	// fits both apps, so neither is much delayed).
	te, tl := res.Apps[0].Turnaround, res.Apps[1].Turnaround
	ratio := float64(tl) / float64(te)
	if ratio < 0.8 || ratio > 1.5 {
		t.Errorf("turnarounds diverge: early %v vs late %v", te, tl)
	}
}

func TestArrivalBeforeAnyoneElseFinishes(t *testing.T) {
	// A late arrival while the machine idles: the simulator must idle
	// forward and still admit it.
	vol := profile(t, "Volrend")
	lone := workload.NewApp(vol, "V#late")
	lone.Arrived = 2 * units.Second
	quick := workload.NewApp(vol, "V#quick")
	res, err := Run(Config{}, policy("gang"), []*workload.App{quick, lone})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || !lone.IsMarkedCompleted() {
		t.Error("late arrival not completed")
	}
}

func TestNegativeArrivalRejected(t *testing.T) {
	vol := profile(t, "Volrend")
	bad := workload.NewApp(vol, "V#bad")
	bad.Arrived = -1
	if _, err := Run(Config{}, policy("gang"), []*workload.App{bad}); err == nil {
		t.Error("negative arrival accepted")
	}
}
