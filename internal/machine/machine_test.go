package machine

import (
	"math"
	"testing"

	"busaware/internal/bus"
	"busaware/internal/units"
	"busaware/internal/workload"
)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func appThreads(name, instance string, t *testing.T) *workload.App {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return workload.NewApp(p, instance)
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.NumCPUs = 0
	if _, err := New(bad); err == nil {
		t.Error("zero CPUs accepted")
	}
}

func TestStepValidation(t *testing.T) {
	m := newMachine(t)
	cg := appThreads("CG", "CG#1", t)
	cases := []struct {
		name string
		pl   []Placement
		dt   units.Time
	}{
		{"zero-dt", []Placement{{cg.Threads[0], 0}}, 0},
		{"nil-thread", []Placement{{nil, 0}}, 100},
		{"cpu-oob", []Placement{{cg.Threads[0], 4}}, 100},
		{"cpu-neg", []Placement{{cg.Threads[0], -1}}, 100},
		{"cpu-double", []Placement{{cg.Threads[0], 1}, {cg.Threads[1], 1}}, 100},
		{"thread-double", []Placement{{cg.Threads[0], 0}, {cg.Threads[0], 1}}, 100},
		{"too-many", []Placement{
			{cg.Threads[0], 0}, {cg.Threads[1], 1},
			{appThreads("CG", "CG#2", t).Threads[0], 2},
			{appThreads("CG", "CG#3", t).Threads[0], 3},
			{appThreads("CG", "CG#4", t).Threads[0], 0},
		}, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Step(tc.pl, tc.dt); err == nil {
				t.Error("invalid step accepted")
			}
		})
	}
	if m.Now() != 0 {
		t.Error("failed steps advanced time")
	}
}

func TestSoloProgressNearFullSpeed(t *testing.T) {
	m := newMachine(t)
	cg := appThreads("CG", "CG#1", t)
	res, err := m.Step([]Placement{
		{cg.Threads[0], 0}, {cg.Threads[1], 1},
	}, 200*units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range res.Threads {
		if ts.Speed < 0.90 {
			t.Errorf("solo CG thread speed = %.3f, want ~1", ts.Speed)
		}
	}
	if m.Now() != 200*units.Millisecond {
		t.Errorf("Now = %v", m.Now())
	}
	// Achieved cumulative rate should approximate the calibrated 23.31.
	cum := float64(res.Threads[0].Rate + res.Threads[1].Rate)
	if math.Abs(cum-23.31)/23.31 > 0.10 {
		t.Errorf("solo CG cumulative rate = %.2f, want ~23.31", cum)
	}
}

func TestSaturationSlowsMemoryBoundApp(t *testing.T) {
	m := newMachine(t)
	cg := appThreads("CG", "CG#1", t)
	b1 := appThreads("BBMA", "B#1", t)
	b2 := appThreads("BBMA", "B#2", t)
	res, err := m.Step([]Placement{
		{cg.Threads[0], 0}, {cg.Threads[1], 1},
		{b1.Threads[0], 2}, {b2.Threads[0], 3},
	}, 200*units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	slow := 1 / res.Threads[0].Speed
	if slow < 1.8 || slow > 3.2 {
		t.Errorf("CG slowdown vs 2 BBMA = %.2f, want 2x-3x", slow)
	}
	if res.MeanUtilization <= 0.85 {
		t.Errorf("bus should be saturated: mean utilization %.3f", res.MeanUtilization)
	}
}

func TestAffinityTrackingAndMigration(t *testing.T) {
	m := newMachine(t)
	lu := appThreads("LU CB", "LU#1", t)
	th := lu.Threads[0]
	if m.LastCPU(th) != -1 {
		t.Error("fresh thread should have no last CPU")
	}
	sib := lu.Threads[1]
	// First run: no migration (no prior state).
	res, err := m.Step([]Placement{{th, 0}, {sib, 1}}, 50*units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Error("first placement counted as migration")
	}
	if m.LastCPU(th) != 0 {
		t.Errorf("LastCPU = %d", m.LastCPU(th))
	}
	// Same CPU: still no migration.
	res, _ = m.Step([]Placement{{th, 0}, {sib, 1}}, 50*units.Millisecond)
	if res.Migrations != 0 {
		t.Error("affine placement counted as migration")
	}
	// Different CPU: migration charged.
	res, _ = m.Step([]Placement{{th, 2}, {sib, 1}}, 50*units.Millisecond)
	if res.Migrations != 1 || !res.Threads[0].Migrated {
		t.Errorf("migration not recorded: %+v", res)
	}
}

func TestMigrationSlowsMigrationSensitiveApp(t *testing.T) {
	runOnce := func(migrate bool) float64 {
		m := newMachine(t)
		lu := appThreads("LU CB", "LU#1", t)
		c0, c1 := 0, 1
		for q := 0; q < 20; q++ {
			if migrate {
				c0, c1 = q%4, (q+2)%4
			}
			pl := []Placement{{lu.Threads[0], c0}, {lu.Threads[1], c1}}
			if _, err := m.Step(pl, 50*units.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		return lu.Threads[0].Progress()
	}
	affine := runOnce(false)
	migratory := runOnce(true)
	if migratory >= affine {
		t.Errorf("migrating LU progressed %.0f vs affine %.0f; migrations should cost", migratory, affine)
	}
	// The cost should be material for LU CB (large penalty) but bounded.
	lost := 1 - migratory/affine
	if lost < 0.05 || lost > 0.60 {
		t.Errorf("migration loss = %.1f%%, want a material but bounded fraction", lost*100)
	}
}

func TestIdle(t *testing.T) {
	m := newMachine(t)
	if err := m.Advance(100, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(100, 3); err != nil {
		t.Fatal(err)
	}
	if m.Now() != 400 {
		t.Errorf("Now = %v, want 400", m.Now())
	}
	if err := m.Advance(0, 1); err == nil {
		t.Error("zero idle accepted")
	}
}

func TestMicroStepResolvesPhases(t *testing.T) {
	// A bursty Raytrace thread alternates 120ms/180ms phases; a 200ms
	// step must see both. We detect this via the achieved rate being
	// strictly between the two phase demands.
	m := newMachine(t)
	rt := appThreads("Raytrace", "RT#1", t)
	res, err := m.Step([]Placement{
		{rt.Threads[0], 0}, {rt.Threads[1], 1},
	}, 300*units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r := float64(res.Threads[0].Rate)
	if r <= 6.3 || r >= 12.5 {
		t.Errorf("bursty mean rate = %.2f, want strictly between phase demands (6.2, 12.55)", r)
	}
}

func TestEmptyStepAdvancesTime(t *testing.T) {
	m := newMachine(t)
	res, err := m.Step(nil, 100*units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 0 || m.Now() != 100*units.Millisecond {
		t.Errorf("empty step: threads=%d now=%v", len(res.Threads), m.Now())
	}
}

func TestSMTValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SMT = true
	cfg.NumCPUs = 5
	if _, err := New(cfg); err == nil {
		t.Error("odd logical CPU count with SMT accepted")
	}
}

func TestSMTCoreSharingSlowsSiblings(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SMT = true
	cfg.NumCPUs = 8 // 4 physical cores
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := appThreads("Volrend", "V#1", t)
	// Both threads on logical CPUs 0 and 1: same physical core.
	shared, err := m.Step([]Placement{
		{vol.Threads[0], 0}, {vol.Threads[1], 1},
	}, 100*units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	m2, _ := New(cfg)
	vol2 := appThreads("Volrend", "V#2", t)
	// Separate cores: logical CPUs 0 and 2.
	apart, err := m2.Step([]Placement{
		{vol2.Threads[0], 0}, {vol2.Threads[1], 2},
	}, 100*units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Threads[0].Speed >= apart.Threads[0].Speed {
		t.Errorf("sibling-shared speed %.3f should trail separate-core speed %.3f",
			shared.Threads[0].Speed, apart.Threads[0].Speed)
	}
	// Sharing costs ~the sibling efficiency, not more.
	ratio := shared.Threads[0].Speed / apart.Threads[0].Speed
	if ratio < smtEfficiency-0.02 || ratio > smtEfficiency+0.02 {
		t.Errorf("sharing ratio = %.3f, want ~%.2f", ratio, smtEfficiency)
	}
}

func TestSMTOffMeansNoSharing(t *testing.T) {
	m := newMachine(t) // default: SMT off
	vol := appThreads("Volrend", "V#1", t)
	res, err := m.Step([]Placement{
		{vol.Threads[0], 0}, {vol.Threads[1], 1},
	}, 100*units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads[0].Speed < 0.95 {
		t.Errorf("speed without SMT = %.3f, want ~1", res.Threads[0].Speed)
	}
}

// countAsks wraps m's bus model so the returned count tracks how many
// non-empty request vectors m puts to it.
func countAsks(m *Machine) *uint64 {
	n := new(uint64)
	allocate := m.busAllocate
	m.busAllocate = func(dst []bus.Grant, reqs []bus.Request) ([]bus.Grant, bus.Outcome) {
		if len(reqs) > 0 {
			*n++
		}
		return allocate(dst, reqs)
	}
	return n
}

// The machine asks the bus model once per distinct consecutive request
// vector, within a Step and across Steps. A migrated thread's vector
// changes once in its quantum, when it finishes repaying the refill
// debt inside the first micro-step.
func TestStepAsksOncePerVector(t *testing.T) {
	m := newMachine(t)
	asks := countAsks(m)
	bt := appThreads("BT", "BT#1", t)
	a, b := bt.Threads[0], bt.Threads[1]
	for _, c := range []struct {
		name string
		pl   []Placement
		want uint64
	}{
		{"first quantum", []Placement{{a, 0}, {b, 1}}, 1},
		{"same placement", []Placement{{a, 0}, {b, 1}}, 0},
		{"both migrate", []Placement{{a, 1}, {b, 0}}, 2},
		{"settled again", []Placement{{a, 1}, {b, 0}}, 0},
	} {
		before := *asks
		if _, err := m.Step(c.pl, 100*units.Millisecond); err != nil {
			t.Fatal(err)
		}
		if got := *asks - before; got != c.want {
			t.Errorf("%s: asked the bus model %d times over ten micro-steps, want %d", c.name, got, c.want)
		}
	}
	if _, ok := m.PlanStretch([]Placement{{a, 1}, {b, 0}}, 100*units.Millisecond); !ok {
		t.Fatal("settled placement refused a stretch plan")
	}
	if *asks != 3 {
		t.Errorf("PlanStretch asked the bus model: %d asks, want 3", *asks)
	}
}

// "Changes" is bitwise, as the bus model's memo keys: a thread moving
// from a phase of demand 0 into one of demand -0 presents a new vector
// mid-quantum, while +0 to +0 does not.
func TestNegativeZeroDemandIsANewVector(t *testing.T) {
	for _, c := range []struct {
		name   string
		second units.Rate
		want   uint64
	}{
		{"+0 then +0", 0, 1},
		{"+0 then -0", units.Rate(math.Copysign(0, -1)), 2},
	} {
		m := newMachine(t)
		asks := countAsks(m)
		p := workload.BBMA()
		p.Phases = []workload.Phase{
			{Duration: 50 * units.Millisecond, Demand: 0, StallFrac: 0.5},
			{Duration: 50 * units.Millisecond, Demand: c.second, StallFrac: 0.5},
		}
		app := workload.NewApp(p, "Z#1")
		if _, err := m.Step([]Placement{{app.Threads[0], 0}}, 100*units.Millisecond); err != nil {
			t.Fatal(err)
		}
		if idx, _ := app.Threads[0].PhasePos(); idx != 0 {
			t.Fatalf("%s: quantum ended in phase %d, want a full cycle back to 0", c.name, idx)
		}
		if got := *asks; got != c.want {
			t.Errorf("%s: %d asks, want %d", c.name, got, c.want)
		}
	}
}
