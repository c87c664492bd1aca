package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"busaware/internal/units"
)

func TestProfileValidate(t *testing.T) {
	good := Profile{Name: "x", Threads: 1, Phases: []Phase{{Duration: 1, Demand: 1, StallFrac: 0.5}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	bad := []Profile{
		{},
		{Name: "x"},
		{Name: "x", Threads: 1},
		{Name: "x", Threads: 1, Phases: []Phase{{Duration: 0}}},
		{Name: "x", Threads: 1, Phases: []Phase{{Duration: 1, Demand: -1}}},
		{Name: "x", Threads: 1, Phases: []Phase{{Duration: 1, StallFrac: 2}}},
		{Name: "x", Threads: 1, Phases: []Phase{{Duration: 1}}, MigrationPenalty: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestSoloRateWeighting(t *testing.T) {
	p := Profile{
		Name: "x", Threads: 2,
		Phases: []Phase{
			{Duration: 100, Demand: 10, StallFrac: 0.5},
			{Duration: 300, Demand: 2, StallFrac: 0.1},
		},
	}
	// Per thread: (10*100 + 2*300)/400 = 4; cumulative = 8.
	if got := p.SoloRate(); math.Abs(float64(got)-8) > 1e-9 {
		t.Errorf("SoloRate = %v, want 8", got)
	}
}

func TestPaperAppsOrderingAndRange(t *testing.T) {
	apps := PaperApps()
	if len(apps) != 11 {
		t.Fatalf("got %d paper apps, want 11", len(apps))
	}
	if apps[0].Name != "Radiosity" || apps[len(apps)-1].Name != "CG" {
		t.Errorf("order endpoints: %s ... %s", apps[0].Name, apps[len(apps)-1].Name)
	}
	prev := units.Rate(-1)
	for _, p := range apps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
		r := p.SoloRate()
		if r < prev {
			t.Errorf("%s breaks increasing-rate order (%v < %v)", p.Name, r, prev)
		}
		prev = r
		if p.Threads != 2 {
			t.Errorf("%s threads = %d, want 2 (paper runs 2-thread instances)", p.Name, p.Threads)
		}
	}
	// Paper: range 0.48 .. 23.31 trans/usec.
	if lo := apps[0].SoloRate(); math.Abs(float64(lo)-0.48) > 0.01 {
		t.Errorf("min solo rate = %v, want 0.48", lo)
	}
	if hi := apps[len(apps)-1].SoloRate(); math.Abs(float64(hi)-23.31) > 0.01 {
		t.Errorf("max solo rate = %v, want 23.31", hi)
	}
}

func TestRaytraceCalibration(t *testing.T) {
	p, ok := ByName("Raytrace")
	if !ok {
		t.Fatal("Raytrace not in registry")
	}
	// Four Raytrace threads yield 34.89 trans/usec in the paper ->
	// two-thread instance ~17.45. Accept ±3%.
	got := float64(p.SoloRate())
	if math.Abs(got-17.45)/17.45 > 0.03 {
		t.Errorf("Raytrace solo rate = %.2f, want ~17.45", got)
	}
	if len(p.Phases) < 2 {
		t.Error("Raytrace must be bursty (multiple phases)")
	}
}

func TestLUCalibration(t *testing.T) {
	p, ok := ByName("LU CB")
	if !ok {
		t.Fatal("LU CB not in registry")
	}
	if p.MigrationPenalty < 4000 {
		t.Errorf("LU CB migration penalty = %v, should be large (migration-sensitive)", p.MigrationPenalty)
	}
}

func TestMicrobenchmarks(t *testing.T) {
	b := BBMA()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if !b.Endless() {
		t.Error("BBMA must be endless")
	}
	if got := float64(b.SoloRate()); math.Abs(got-23.6) > 0.01 {
		t.Errorf("BBMA rate = %v, want 23.6", got)
	}
	n := NBBMA()
	if got := float64(n.SoloRate()); math.Abs(got-0.0037) > 1e-6 {
		t.Errorf("nBBMA rate = %v, want 0.0037", got)
	}
	if !n.Endless() {
		t.Error("nBBMA must be endless")
	}
}

func TestByNameMisses(t *testing.T) {
	if _, ok := ByName("NoSuchApp"); ok {
		t.Error("ByName should miss unknown names")
	}
	for _, name := range []string{"CG", "BBMA", "nBBMA", "STREAM", "Water-nsqr"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) missed", name)
		}
	}
}

func TestThreadAdvanceProgress(t *testing.T) {
	p, _ := ByName("CG")
	app := NewApp(p, "CG#1")
	th := app.Threads[0]
	if th.Done() {
		t.Fatal("fresh thread already done")
	}
	// Advance the gang together (CG barriers every 40ms): feed both
	// threads in interleaved chunks.
	chunk := float64(10 * units.Millisecond)
	for fed := 0.0; fed < float64(p.SoloTime); fed += chunk {
		app.Threads[0].AdvanceWork(chunk)
		app.Threads[1].AdvanceWork(chunk)
	}
	if !th.Done() {
		t.Errorf("thread not done after full solo time; progress=%v", th.Progress())
	}
	if !app.Done() {
		t.Error("app should be done")
	}
}

func TestThreadCountersAccumulate(t *testing.T) {
	p, _ := ByName("CG")
	app := NewApp(p, "CG#1")
	th := app.Threads[0]
	var trans uint64
	th.AccrueCounters(&trans, 1000, 10) // 1000us at 10 trans/us
	th.Counters.Add(trans)
	if got := th.Counters.Read(); got != 10000 {
		t.Errorf("bus transactions = %d, want 10000", got)
	}
	// Each call truncates its own increment: two 1.5-transaction
	// micro-steps accrue 2, not 3.
	trans = 0
	th.AccrueCounters(&trans, 0.5, 3)
	th.AccrueCounters(&trans, 0.5, 3)
	if trans != 2 {
		t.Errorf("two 1.5-transaction accruals = %d, want 2", trans)
	}
}

func TestPhaseCycling(t *testing.T) {
	p := Profile{
		Name: "x", Threads: 1, SoloTime: 10000,
		// single thread: no barriers
		Phases: []Phase{
			{Duration: 100, Demand: 10, StallFrac: 0.9},
			{Duration: 100, Demand: 1, StallFrac: 0.1},
		},
	}
	app := NewApp(p, "x#1")
	th := app.Threads[0]
	if th.Demand() != 10 {
		t.Errorf("initial demand = %v", th.Demand())
	}
	th.AdvanceWork(150)
	if th.Demand() != 1 {
		t.Errorf("demand after 150us = %v, want phase 2's 1", th.Demand())
	}
	th.AdvanceWork(100) // 250 total: back to phase 1 (cycle at 200)
	if th.Demand() != 10 {
		t.Errorf("demand after 250us = %v, want phase 1's 10", th.Demand())
	}
}

func TestMigrationDebt(t *testing.T) {
	p, _ := ByName("LU CB")
	app := NewApp(p, "LU#1")
	th := app.Threads[0]
	th.Migrate()
	if th.Demand() < RefillDemand {
		t.Errorf("migrated thread demand = %v, want >= refill %v", th.Demand(), RefillDemand)
	}
	if _, f := th.Request(); f < RefillStallFrac {
		t.Errorf("migrated thread stall = %v", f)
	}
	before := th.Progress()
	th.AdvanceWork(1000)
	if th.Progress() != before {
		t.Error("debt repayment should not advance real progress")
	}
	// Repay the rest of the 8ms penalty.
	th.AdvanceWork(float64(p.MigrationPenalty))
	if th.Demand() >= RefillDemand {
		t.Errorf("demand after repaying debt = %v, want phase demand", th.Demand())
	}
	if th.Progress() <= before {
		t.Error("real progress should resume after debt repaid")
	}
}

func TestEndlessThreadNeverDone(t *testing.T) {
	app := NewApp(BBMA(), "BBMA#1")
	th := app.Threads[0]
	th.AdvanceWork(1e9)
	if th.Done() || app.Done() {
		t.Error("BBMA should never be done")
	}
}

func TestTurnaround(t *testing.T) {
	p, _ := ByName("Volrend")
	app := NewApp(p, "V#1")
	app.Arrived = 100
	if app.Turnaround() != 0 {
		t.Error("turnaround before completion should be 0")
	}
	app.MarkCompleted(10100)
	app.MarkCompleted(99999) // second call must not re-stamp
	if got := app.Turnaround(); got != 10000 {
		t.Errorf("turnaround = %v, want 10000", got)
	}
	if !app.IsMarkedCompleted() {
		t.Error("IsMarkedCompleted false after MarkCompleted")
	}
}

func TestInstances(t *testing.T) {
	apps := Instances(BBMA(), 4)
	if len(apps) != 4 {
		t.Fatalf("got %d instances", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		if names[a.Instance] {
			t.Errorf("duplicate instance name %s", a.Instance)
		}
		names[a.Instance] = true
	}
	if !names["BBMA#1"] || !names["BBMA#4"] {
		t.Errorf("unexpected instance names: %v", names)
	}
}

func TestNewAppPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewApp should panic on invalid profile")
		}
	}()
	NewApp(Profile{}, "bad")
}

// Property: random profiles always validate and their solo rate equals
// the duration-weighted mean of phase demands times thread count.
func TestRandomProfileValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomProfile(rng, "fuzz")
		if p.Validate() != nil {
			return false
		}
		var tot, weighted float64
		for _, ph := range p.Phases {
			tot += float64(ph.Duration)
			weighted += float64(ph.Demand) * float64(ph.Duration)
		}
		want := weighted / tot * float64(p.Threads)
		return math.Abs(float64(p.SoloRate())-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: AdvanceWork conserves progress — total progress equals
// the sum of solo-equivalent slices minus debt repayments, and never
// exceeds SoloTime-based completion semantics.
func TestAdvanceConservationProperty(t *testing.T) {
	f := func(seed int64, slices []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomProfile(rng, "fuzz")
		app := NewApp(p, "f#1")
		th := app.Threads[0]
		var fed float64
		for _, s := range slices {
			du := float64(s % 2000)
			th.AdvanceWork(du)
			fed += du
		}
		if th.Progress() > fed+1e-6 {
			return false
		}
		if th.Done() && th.Progress() < float64(p.SoloTime)-1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestServerProfiles(t *testing.T) {
	for _, p := range ServerProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
		if p.BarrierInterval != 0 {
			t.Errorf("%s: server threads handle independent requests, no barriers", p.Name)
		}
		if p.Endless() {
			t.Errorf("%s should be finite for turnaround experiments", p.Name)
		}
		got, ok := ByName(p.Name)
		if !ok || got.Name != p.Name {
			t.Errorf("ByName(%q) failed", p.Name)
		}
	}
	web := WebServer()
	if len(web.Phases) < 3 {
		t.Error("WebServer should be bursty (several phases)")
	}
	db := Database()
	if db.MigrationPenalty < 3000 {
		t.Error("Database should be migration-sensitive (buffer pool)")
	}
}

func TestBarrierSpinAccounting(t *testing.T) {
	p, _ := ByName("CG") // 40ms barrier interval
	app := NewApp(p, "CG#1")
	runner := app.Threads[0]
	// Run one thread far ahead of its sleeping sibling: it must stop
	// at the barrier and spin.
	runner.AdvanceWork(200_000)
	if runner.Progress() > float64(p.BarrierInterval)+1 {
		t.Errorf("runner progressed %.0f past barrier cap %d", runner.Progress(), p.BarrierInterval)
	}
	if !runner.AtBarrier() {
		t.Error("runner should be at the barrier")
	}
	// At the barrier: demand collapses to the spin level and stalls
	// vanish (spinning hits in cache).
	if runner.Demand() != SpinDemand {
		t.Errorf("spinning demand = %v, want %v", runner.Demand(), SpinDemand)
	}
	if _, f := runner.Request(); f != 0 {
		t.Errorf("spinning stall = %v, want 0", f)
	}
	// Spinning is not completion.
	if runner.Done() {
		t.Error("runner done at a barrier")
	}
	// The sibling catches up; the runner resumes.
	app.Threads[1].AdvanceWork(100_000)
	if runner.AtBarrier() {
		t.Error("runner still at barrier after sibling caught up")
	}
}

func TestDebtAccessor(t *testing.T) {
	p, _ := ByName("LU CB")
	th := NewApp(p, "LU#1").Threads[0]
	if th.Debt() != 0 {
		t.Error("fresh thread has debt")
	}
	th.AddDebt(500)
	th.AddDebt(-10) // ignored
	if th.Debt() != 500 {
		t.Errorf("debt = %v, want 500", th.Debt())
	}
}

func TestSoloRateEmptyPhases(t *testing.T) {
	var p Profile
	if p.SoloRate() != 0 {
		t.Error("empty profile should have zero rates")
	}
}

func TestSingleThreadNeverAtBarrier(t *testing.T) {
	b := NewApp(BBMA(), "B#1")
	th := b.Threads[0]
	th.AdvanceWork(1e6)
	if th.AtBarrier() {
		t.Error("single-thread app cannot barrier")
	}
}
