package machine

import (
	"fmt"
	"testing"

	"busaware/internal/perfctr"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// planCopy deep-copies a plan, which aliases the Step scratch the next
// Step overwrites.
func planCopy(r StepResult) StepResult {
	c := r
	c.Threads = make([]ThreadStep, len(r.Threads))
	for i, ts := range r.Threads {
		ts.SoloPerSub = append([]float64(nil), ts.SoloPerSub...)
		c.Threads[i] = ts
	}
	return c
}

// bits renders r with every float64 in its shortest round-trip form, so
// two renderings are equal exactly when the values are bitwise equal
// (-0 prints as "-0").
func bits(r StepResult) string { return fmt.Sprintf("%+v", r) }

// TestPlanIsTheNextQuantum steps a placement set, takes the plan and
// steps the same placements again: the second StepResult and the
// threads' counter increments must equal the plan bit for bit.
func TestPlanIsTheNextQuantum(t *testing.T) {
	const dt = 100 * units.Millisecond
	smt := DefaultConfig()
	smt.SMT = true
	cases := []struct {
		name string
		cfg  Config
		// probe is stepped before the plan is taken; replay is the
		// placement set planned and stepped again.
		probe, replay func(apps []*workload.App) []Placement
		apps          []string
		migrated      bool
	}{
		{
			name: "uniform quantum",
			cfg:  DefaultConfig(),
			apps: []string{"CG", "BBMA", "nBBMA"},
			probe: func(a []*workload.App) []Placement {
				return []Placement{{a[0].Threads[0], 0}, {a[0].Threads[1], 1}, {a[1].Threads[0], 2}, {a[2].Threads[0], 3}}
			},
		},
		{
			name: "SMT sibling pair",
			cfg:  smt,
			apps: []string{"BT", "BBMA"},
			probe: func(a []*workload.App) []Placement {
				return []Placement{{a[0].Threads[0], 0}, {a[0].Threads[1], 1}, {a[1].Threads[0], 2}}
			},
		},
		{
			// BBMA has no migration penalty, so moving it owes no debt
			// and its quantum stays uniform; the replayed quantum must not
			// count the migration again.
			name: "zero-penalty migration",
			cfg:  DefaultConfig(),
			apps: []string{"BBMA", "nBBMA"},
			probe: func(a []*workload.App) []Placement {
				return []Placement{{a[0].Threads[0], 0}, {a[1].Threads[0], 1}}
			},
			replay: func(a []*workload.App) []Placement {
				return []Placement{{a[0].Threads[0], 2}, {a[1].Threads[0], 1}}
			},
			migrated: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var apps []*workload.App
			for i, name := range c.apps {
				apps = append(apps, appThreads(name, fmt.Sprintf("%s#%d", name, i), t))
			}
			pl := c.probe(apps)
			if c.replay != nil {
				if _, err := m.Step(pl, dt); err != nil {
					t.Fatal(err)
				}
				pl = c.replay(apps)
			}
			probe, err := m.Step(pl, dt)
			if err != nil {
				t.Fatal(err)
			}
			if got := probe.Migrations > 0; got != c.migrated {
				t.Fatalf("probe migrations = %d, want migrated %v", probe.Migrations, c.migrated)
			}
			plan, ok := m.PlanStretch(pl, dt)
			if !ok {
				t.Fatal("uniform quantum refused")
			}
			want := planCopy(plan)
			if want.Migrations != 0 || want.ContextSwitches != 0 {
				t.Errorf("plan counts %d migrations and %d context switches, want none", want.Migrations, want.ContextSwitches)
			}
			before := make([]perfctr.Sample, len(pl))
			for i, p := range pl {
				before[i].Value = p.Thread.Counters.Read()
			}
			again, err := m.Step(pl, dt)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := bits(again), bits(want); g != w {
				t.Errorf("second Step differs from the plan:\n got %s\nwant %s", g, w)
			}
			for i, p := range pl {
				d := perfctr.Delta(before[i], perfctr.Sample{Value: p.Thread.Counters.Read()})
				if d != want.Threads[i].Transactions {
					t.Errorf("thread %d counter increment %d, plan %d", i, d, want.Threads[i].Transactions)
				}
			}
		})
	}
}

// TestPlanStretchRefuses covers the quanta whose repetition is not a
// replay: each leaves the machine where the next quantum would differ
// from the last one, or where no last quantum is on record.
func TestPlanStretchRefuses(t *testing.T) {
	const dt = 100 * units.Millisecond
	twoPhase := func(a, b workload.Phase) *workload.App {
		p := workload.BBMA()
		p.Phases = []workload.Phase{a, b}
		return workload.NewApp(p, "P#1")
	}
	cases := []struct {
		name string
		// run steps the machine and returns the placement set to plan.
		run func(t *testing.T, m *Machine) []Placement
	}{
		{
			name: "phase boundary crossed mid-quantum",
			run: func(t *testing.T, m *Machine) []Placement {
				app := twoPhase(
					workload.Phase{Duration: 30 * units.Millisecond, Demand: 4, StallFrac: 0.3},
					workload.Phase{Duration: 500 * units.Millisecond, Demand: 12, StallFrac: 0.6},
				)
				pl := []Placement{{app.Threads[0], 0}}
				mustStep(t, m, pl, dt)
				return pl
			},
		},
		{
			name: "debt repaid mid-quantum",
			run: func(t *testing.T, m *Machine) []Placement {
				bt := appThreads("BT", "BT#1", t)
				mustStep(t, m, []Placement{{bt.Threads[0], 0}, {bt.Threads[1], 1}}, dt)
				pl := []Placement{{bt.Threads[0], 1}, {bt.Threads[1], 0}}
				mustStep(t, m, pl, dt)
				if bt.Threads[0].Debt() != 0 {
					t.Fatal("migration debt outlived the quantum")
				}
				return pl
			},
		},
		{
			name: "idle quantum",
			run: func(t *testing.T, m *Machine) []Placement {
				b := appThreads("BBMA", "B#1", t)
				pl := []Placement{{b.Threads[0], 0}}
				mustStep(t, m, pl, dt)
				if err := m.Advance(dt, 1); err != nil {
					t.Fatal(err)
				}
				return pl
			},
		},
		{
			// Demand 0 runs at full speed, so the first phase ends exactly
			// with the quantum: every micro-step asked its vector, and the
			// next quantum would ask the second phase's.
			name: "request changed",
			run: func(t *testing.T, m *Machine) []Placement {
				app := twoPhase(
					workload.Phase{Duration: dt, Demand: 0, StallFrac: 0},
					workload.Phase{Duration: dt, Demand: 0, StallFrac: 0.5},
				)
				pl := []Placement{{app.Threads[0], 0}}
				mustStep(t, m, pl, dt)
				if idx, used := app.Threads[0].PhasePos(); idx != 1 || used != 0 {
					t.Fatalf("quantum ended at phase %d + %v, want the start of phase 1", idx, used)
				}
				return pl
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newMachine(t)
			pl := c.run(t, m)
			if _, ok := m.PlanStretch(pl, dt); ok {
				t.Error("PlanStretch handed out a plan")
			}
		})
	}
}

func mustStep(t *testing.T, m *Machine, pl []Placement, dt units.Time) {
	t.Helper()
	if _, err := m.Step(pl, dt); err != nil {
		t.Fatal(err)
	}
}
