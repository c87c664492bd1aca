package sched

import (
	"testing"

	"busaware/internal/machine"
	"busaware/internal/workload"
)

func TestOptimalValidation(t *testing.T) {
	o := newOptimal(4)
	if o.Name() != "Optimal" || o.Quantum() != DefaultQuantum {
		t.Error("identity")
	}
	if pl := o.Schedule(nil); pl != nil {
		t.Error("empty scheduler produced placements")
	}
}

func TestOptimalSegregatesAntagonists(t *testing.T) {
	// With CG at the head and BBMAs available, the model-driven search
	// should prefer running the CG gang with the idle companions (or
	// alone) over drowning it among antagonists.
	o := newOptimal(4)
	p, _ := workload.ByName("CG")
	cg := NewJob(workload.NewApp(p, "CG#1"), 1, 0)
	o.Add(cg)
	var bs []*Job
	for i := 0; i < 4; i++ {
		b := NewJob(workload.NewApp(workload.BBMA(), "B"+string(rune('1'+i))), 1, 0)
		bs = append(bs, b)
		o.Add(b)
	}
	pl := o.Schedule(nil)
	byApp := map[string]int{}
	for _, pp := range pl {
		byApp[pp.Thread.App.Profile.Name]++
	}
	if byApp["CG"] != 2 {
		t.Fatalf("head gang not fully scheduled: %v", byApp)
	}
	// The model knows extra BBMAs destroy aggregate weighted speed for
	// CG, but including idle capacity is free throughput for them; the
	// key invariant is that CG runs and the subset fits.
	if len(pl) > 4 {
		t.Errorf("placed %d threads on 4 CPUs", len(pl))
	}
}

func TestOptimalNoStarvation(t *testing.T) {
	o := newOptimal(4)
	var jobs []*Job
	p, _ := workload.ByName("CG")
	for i := 0; i < 3; i++ {
		j := NewJob(workload.NewApp(p, "CG#"+string(rune('1'+i))), 1, 0)
		jobs = append(jobs, j)
		o.Add(j)
	}
	for i := 0; i < 2; i++ {
		j := NewJob(workload.NewApp(workload.BBMA(), "B#"+string(rune('1'+i))), 1, 0)
		jobs = append(jobs, j)
		o.Add(j)
	}
	ran := map[*Job]int{}
	for q := 0; q < 30; q++ {
		pl := o.Schedule(nil)
		seen := map[*Job]bool{}
		for _, pp := range pl {
			for _, j := range jobs {
				if pp.Thread.App == j.App {
					seen[j] = true
				}
			}
		}
		for j := range seen {
			ran[j]++
		}
	}
	for _, j := range jobs {
		if ran[j] == 0 {
			t.Errorf("job %s starved by Optimal", j.App.Instance)
		}
	}
}

func TestOptimalPlacementsValid(t *testing.T) {
	o := newOptimal(4)
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"CG", "SP", "Radiosity"}
	for _, n := range names {
		p, _ := workload.ByName(n)
		o.Add(NewJob(workload.NewApp(p, n+"#1"), 1, 0))
	}
	o.Add(NewJob(workload.NewApp(workload.BBMA(), "B#1"), 1, 0))
	o.Add(NewJob(workload.NewApp(workload.NBBMA(), "n#1"), 1, 0))
	for q := 0; q < 40; q++ {
		pl := o.Schedule(m)
		if _, err := m.Step(pl, o.Quantum()); err != nil {
			t.Fatalf("quantum %d: %v", q, err)
		}
	}
}

func TestOptimalRemove(t *testing.T) {
	o := newOptimal(4)
	p, _ := workload.ByName("CG")
	j := NewJob(workload.NewApp(p, "CG#1"), 1, 0)
	o.Add(j)
	o.Remove(j)
	if pl := o.Schedule(nil); pl != nil {
		t.Error("removed job scheduled")
	}
	if _, ok := o.waiting[j]; ok {
		t.Error("waiting state leaked")
	}
}

func TestOptimalPrefersHarmlessCompanions(t *testing.T) {
	// Given the choice between filling free processors with another
	// antagonist or with an idle nBBMA, the predicted-throughput score
	// with aging must eventually favour the nBBMA when the head is
	// memory-bound.
	o := newOptimal(4)
	p, _ := workload.ByName("CG")
	cg := NewJob(workload.NewApp(p, "CG#1"), 1, 0)
	b := NewJob(workload.NewApp(workload.BBMA(), "B#1"), 1, 0)
	nb := NewJob(workload.NewApp(workload.NBBMA(), "n#1"), 1, 0)
	o.Add(cg)
	o.Add(b)
	o.Add(nb)
	pl := o.Schedule(nil)
	placedN := false
	for _, pp := range pl {
		if pp.Thread.App == nb.App {
			placedN = true
		}
	}
	if !placedN {
		t.Error("optimal left the free-throughput nBBMA unscheduled")
	}
}

func BenchmarkOptimalSchedule(b *testing.B) {
	o := newOptimal(4)
	p, _ := workload.ByName("CG")
	for i := 0; i < 2; i++ {
		o.Add(NewJob(workload.NewApp(p, "CG"), 1, 0))
	}
	for i := 0; i < 4; i++ {
		o.Add(NewJob(workload.NewApp(workload.BBMA(), "B"), 1, 0))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Schedule(nil)
	}
}
