package machine

import (
	"fmt"
	"math"
	"testing"

	"busaware/internal/bus"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// refMachine is the per-micro-step reference for Step: the same
// occupancy bookkeeping, and a micro-step loop that commits each
// thread's transactions and advances it every micro-step, where Step
// sums a quantum's increments and commits once.
type refMachine struct {
	cfg        Config
	bus        *bus.Model
	lastCPU    map[*workload.Thread]int
	lastThread []*workload.Thread
}

func newRefMachine(cfg Config) *refMachine {
	return &refMachine{
		cfg:        cfg,
		bus:        bus.New(),
		lastCPU:    make(map[*workload.Thread]int),
		lastThread: make([]*workload.Thread, cfg.NumCPUs),
	}
}

func (r *refMachine) step(placements []Placement, dt units.Time) {
	for _, p := range placements {
		last, ran := r.lastCPU[p.Thread]
		switch {
		case ran && last != p.CPU:
			p.Thread.Migrate()
		case ran && r.lastThread[p.CPU] != p.Thread:
			p.Thread.AddDebt(float64(pollutionFrac * float64(p.Thread.App.Profile.MigrationPenalty)))
		}
		r.lastCPU[p.Thread] = p.CPU
		r.lastThread[p.CPU] = p.Thread
	}
	busyCore := make([]int, (r.cfg.NumCPUs+1)/2)
	for _, p := range placements {
		busyCore[p.CPU/2]++
	}
	for remaining := dt; remaining > 0; {
		sub := microStep
		if sub > remaining {
			sub = remaining
		}
		remaining -= sub
		reqs := make([]bus.Request, len(placements))
		for i, p := range placements {
			reqs[i].Demand, reqs[i].StallFrac = p.Thread.Request()
		}
		grants, _ := r.bus.Allocate(reqs)
		for i, p := range placements {
			g := grants[i]
			speed := g.Speed
			if r.cfg.SMT && busyCore[p.CPU/2] > 1 {
				speed *= smtEfficiency
			}
			wall := float64(sub)
			var trans uint64
			p.Thread.AccrueCounters(&trans, wall, g.Rate*units.Rate(speed/maxf(g.Speed, 1e-12)))
			p.Thread.Counters.Add(trans)
			p.Thread.AdvanceWork(float64(wall * speed))
		}
	}
}

// slot places thread th of app a on cpu.
type slot struct{ a, th, cpu int }

// threadDiff reports the first bitwise difference between two threads'
// counters, progress, phase position and debt, or "".
func threadDiff(x, y *workload.Thread) string {
	if cx, cy := x.Counters.Read(), y.Counters.Read(); cx != cy {
		return fmt.Sprintf("counters %v vs %v", cx, cy)
	}
	bits := math.Float64bits
	if bits(x.Progress()) != bits(y.Progress()) {
		return fmt.Sprintf("progress %v vs %v", x.Progress(), y.Progress())
	}
	xi, xu := x.PhasePos()
	yi, yu := y.PhasePos()
	if xi != yi || bits(xu) != bits(yu) {
		return fmt.Sprintf("phase (%d, %v) vs (%d, %v)", xi, xu, yi, yu)
	}
	if bits(x.Debt()) != bits(y.Debt()) {
		return fmt.Sprintf("debt %v vs %v", x.Debt(), y.Debt())
	}
	return ""
}

// stepCase is a schedule of placements to run on a Machine and on the
// per-micro-step reference side by side.
type stepCase struct {
	name     string
	cfg      Config
	apps     []string
	quantum  units.Time
	schedule [][]slot
	// exercised reports whether the run has reached the case's
	// feature; it is asked after every quantum.
	exercised func(apps []*workload.App, migrations int) bool
}

// stepCases cover migrations and cache-pollution debt, a barrier gang
// with a descheduled sibling, multi-phase Raytrace crossing phase
// edges, SMT sibling sharing, and quanta that end on a partial
// micro-step: Step's per-grant values must be derived again whenever
// the bus answer or the micro-step length changes.
func stepCases() []stepCase {
	smt := DefaultConfig()
	smt.SMT = true
	repeat := func(n int, q []slot) [][]slot {
		out := make([][]slot, n)
		for i := range out {
			out[i] = q
		}
		return out
	}
	spun := func(apps []*workload.App, _ int) bool { return apps[0].Threads[0].AtBarrier() }
	migrated := func(_ []*workload.App, migrations int) bool { return migrations > 0 }
	wrapped := func(apps []*workload.App, _ int) bool {
		idx, _ := apps[0].Threads[0].PhasePos()
		return idx > 1
	}
	always := func([]*workload.App, int) bool { return true }
	return []stepCase{
		{
			name:    "migration-debt",
			cfg:     DefaultConfig(),
			apps:    []string{"CG", "BBMA", "LU CB"},
			quantum: 200 * units.Millisecond,
			schedule: [][]slot{
				{{0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {2, 0, 3}},
				{{0, 0, 1}, {0, 1, 0}, {1, 0, 2}, {2, 1, 3}}, // CG swaps CPUs; LU CB/1 takes CPU 3
				{{1, 0, 1}, {0, 1, 0}, {2, 0, 2}},            // BBMA lands on CG/0's CPU
				{{0, 0, 1}, {0, 1, 0}, {2, 0, 2}, {2, 1, 3}}, // CG/0 resumes there: pollution debt
			},
			exercised: migrated,
		},
		{
			name:    "barrier-gang",
			cfg:     DefaultConfig(),
			apps:    []string{"Raytrace", "SP"},
			quantum: 200 * units.Millisecond,
			schedule: append(
				repeat(4, []slot{{0, 0, 0}, {1, 0, 1}, {1, 1, 2}}), // Raytrace/1 descheduled: /0 spins
				repeat(4, []slot{{0, 0, 0}, {0, 1, 3}, {1, 0, 1}, {1, 1, 2}})...),
			exercised: spun,
		},
		{
			name:      "multi-phase-raytrace",
			cfg:       DefaultConfig(),
			apps:      []string{"Raytrace", "Raytrace"},
			quantum:   105 * units.Millisecond, // ends on a 5 ms micro-step
			schedule:  repeat(24, []slot{{0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {1, 1, 3}}),
			exercised: wrapped,
		},
		{
			name:    "smt",
			cfg:     smt,
			apps:    []string{"CG", "BBMA", "nBBMA"},
			quantum: 200 * units.Millisecond,
			schedule: append(
				repeat(3, []slot{{0, 0, 0}, {0, 1, 1}, {1, 0, 2}}), // CG shares core 0
				repeat(3, []slot{{0, 0, 0}, {0, 1, 2}, {1, 0, 1}, {2, 0, 3}})...),
			exercised: always,
		},
	}
}

// matchRef runs tc's schedule on m and on a fresh per-micro-step
// reference, and fails t at the first bitwise difference in any
// thread's counters, progress, phase position or debt.
func matchRef(t *testing.T, m *Machine, tc stepCase) {
	t.Helper()
	ref := newRefMachine(tc.cfg)
	build := func() []*workload.App {
		apps := make([]*workload.App, len(tc.apps))
		for i, name := range tc.apps {
			apps[i] = appThreads(name, fmt.Sprintf("%s#%d", name, i), t)
		}
		return apps
	}
	got, want := build(), build()
	migrations, reached := 0, false
	for q, slots := range tc.schedule {
		pg := make([]Placement, len(slots))
		pw := make([]Placement, len(slots))
		for i, s := range slots {
			pg[i] = Placement{Thread: got[s.a].Threads[s.th], CPU: s.cpu}
			pw[i] = Placement{Thread: want[s.a].Threads[s.th], CPU: s.cpu}
		}
		res, err := m.Step(pg, tc.quantum)
		if err != nil {
			t.Fatalf("quantum %d: %v", q, err)
		}
		migrations += res.Migrations
		ref.step(pw, tc.quantum)
		for a := range got {
			for th := range got[a].Threads {
				if d := threadDiff(got[a].Threads[th], want[a].Threads[th]); d != "" {
					t.Fatalf("quantum %d, %s/%d: %s", q, got[a].Instance, th, d)
				}
			}
		}
		reached = reached || tc.exercised(got, migrations)
	}
	if !reached {
		t.Errorf("schedule never reached the case's feature")
	}
}

// TestStepMatchesPerMicroStepAdvance holds Step's once-per-Step counter
// commit and its per-grant micro-step values to the per-micro-step
// reference, bitwise, over stepCases.
func TestStepMatchesPerMicroStepAdvance(t *testing.T) {
	for _, tc := range stepCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			matchRef(t, m, tc)
		})
	}
}

// TestPooledBusMatchesFresh runs each case on a machine whose bus model
// came back through the pool from a machine that ran the same case, so
// the second run's vectors are answered from the equilibria the first
// run solved. Its bits must still be the fresh reference's.
func TestPooledBusMatchesFresh(t *testing.T) {
	for _, tc := range stepCases() {
		t.Run(tc.name, func(t *testing.T) {
			first, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			matchRef(t, first, tc)
			model := first.bus
			first.Release()
			if first.bus != nil || first.busAllocate != nil {
				t.Fatal("Release left the machine holding its bus model")
			}
			matchRef(t, machineWith(t, tc.cfg, model), tc)
		})
	}
}

// machineWith returns a machine built by New that drew model from the
// pool. A pool may drop what it is given (it does so at random under
// the race detector) or hand it out on another processor, so each
// retry gives model back before building again; a second copy left in
// the pool is harmless, as a Model is safe for concurrent use.
func machineWith(t *testing.T, cfg Config, model *bus.Model) *Machine {
	t.Helper()
	for try := 0; try < 100; try++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.bus == model {
			return m
		}
		busModels.Put(model)
	}
	t.Fatal("the pool never handed back the released model")
	return nil
}
