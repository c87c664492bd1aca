package sched

import (
	"fmt"
	"strings"
	"testing"

	"busaware/internal/machine"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// fakeAffinity is a test double for machine affinity state.
type fakeAffinity map[*workload.Thread]int

func (f fakeAffinity) LastCPU(t *workload.Thread) int {
	if cpu, ok := f[t]; ok {
		return cpu
	}
	return -1
}

func TestLinuxSchedulesUpToNumCPUs(t *testing.T) {
	l := newLinux(4, 1)
	cg := NewJob(workload.NewApp(mustProfile(t, "CG"), "CG#1"), 1, 0)
	sp := NewJob(workload.NewApp(mustProfile(t, "SP"), "SP#1"), 1, 0)
	b := NewJob(workload.NewApp(workload.BBMA(), "B#1"), 1, 0)
	l.Add(cg)
	l.Add(sp)
	l.Add(b)
	pl := l.Schedule(nil)
	if len(pl) != 4 {
		t.Fatalf("placed %d threads, want 4 (5 runnable, 4 CPUs)", len(pl))
	}
	cpus := map[int]bool{}
	for _, p := range pl {
		if cpus[p.CPU] {
			t.Error("CPU double-booked")
		}
		cpus[p.CPU] = true
	}
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return p
}

func TestLinuxTimeSharesEverything(t *testing.T) {
	// 8 threads on 4 CPUs: over an epoch every thread must run.
	l := newLinux(4, 42)
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j := NewJob(workload.NewApp(workload.BBMA(), "B#"+string(rune('1'+i))), 1, 0)
		jobs = append(jobs, j)
		l.Add(j)
	}
	cg := NewJob(workload.NewApp(mustProfile(t, "CG"), "CG#1"), 1, 0)
	sp := NewJob(workload.NewApp(mustProfile(t, "SP"), "SP#1"), 1, 0)
	jobs = append(jobs, cg, sp)
	l.Add(cg)
	l.Add(sp)

	ran := map[*workload.Thread]int{}
	for q := 0; q < 20; q++ {
		for _, p := range l.Schedule(nil) {
			ran[p.Thread]++
		}
	}
	for _, j := range jobs {
		for _, th := range j.App.Threads {
			if ran[th] == 0 {
				t.Errorf("thread %s/%d starved", th.App.Instance, th.Index)
			}
		}
	}
}

func TestLinuxAffinityBias(t *testing.T) {
	l := newLinux(2, 7)
	a := NewJob(workload.NewApp(workload.BBMA(), "A"), 1, 0)
	b := NewJob(workload.NewApp(workload.BBMA(), "B"), 1, 0)
	l.Add(a)
	l.Add(b)
	aff := fakeAffinity{
		a.App.Threads[0]: 1,
		b.App.Threads[0]: 0,
	}
	pl := l.Schedule(aff)
	if len(pl) != 2 {
		t.Fatalf("placed %d", len(pl))
	}
	for _, p := range pl {
		if want := aff[p.Thread]; p.CPU != want {
			t.Errorf("thread placed on %d, affinity says %d", p.CPU, want)
		}
	}
}

func TestLinuxRemove(t *testing.T) {
	l := newLinux(4, 1)
	a := NewJob(workload.NewApp(workload.BBMA(), "A"), 1, 0)
	b := NewJob(workload.NewApp(workload.BBMA(), "B"), 1, 0)
	l.Add(a)
	l.Add(b)
	l.Remove(a)
	for q := 0; q < 10; q++ {
		for _, p := range l.Schedule(nil) {
			if p.Thread.App == a.App {
				t.Fatal("removed app still scheduled")
			}
		}
	}
}

// Removing a job from the middle of the run queue must leave every
// surviving thread holding its own epoch counter: the counters live in
// a slice parallel to the queue, so the compaction has to move both.
func TestLinuxRemoveKeepsSurvivorCounters(t *testing.T) {
	l := newLinux(3, 5)
	var jobs []*Job
	for i, name := range []string{"CG", "SP", "Raytrace", "LU CB"} {
		j := NewJob(workload.NewApp(mustProfile(t, name), fmt.Sprintf("%s#%d", name, i)), 1, 0)
		jobs = append(jobs, j)
		l.Add(j)
	}
	// Three CPUs for eight threads: after a few quanta, including an
	// epoch refill and its shuffle, the counters differ.
	for q := 0; q < 5; q++ {
		l.Schedule(nil)
	}
	before := map[*workload.Thread]int{}
	distinct := map[int]bool{}
	for i, th := range l.queue {
		before[th] = l.counters[i]
		distinct[l.counters[i]] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("counters never diverged: %v", l.counters)
	}
	victim := l.queue[len(l.queue)/2].App
	for _, j := range jobs {
		if j.App == victim {
			l.Remove(j)
		}
	}
	if len(l.queue) != len(before)-len(victim.Threads) || len(l.counters) != len(l.queue) {
		t.Fatalf("queue %d, counters %d after removing %d of %d threads",
			len(l.queue), len(l.counters), len(victim.Threads), len(before))
	}
	for i, th := range l.queue {
		if th.App == victim {
			t.Fatalf("removed thread %s/%d still queued", th.App.Instance, th.Index)
		}
		if l.counters[i] != before[th] {
			t.Errorf("%s/%d: counter %d, held %d before the removal", th.App.Instance, th.Index, l.counters[i], before[th])
		}
	}
}

func TestLinuxEmpty(t *testing.T) {
	l := newLinux(4, 1)
	if pl := l.Schedule(nil); pl != nil {
		t.Errorf("empty scheduler produced placements: %v", pl)
	}
	if l.Quantum() != LinuxQuantum {
		t.Errorf("quantum = %v", l.Quantum())
	}
	if l.Name() != "Linux" {
		t.Error(l.Name())
	}
}

// gangJob is a job of the given gang size holding one bandwidth
// sample; a done job's threads have all finished their solo work.
func gangJob(name string, threads int, bbw units.Rate, done bool) *Job {
	p := workload.Profile{Name: name, Threads: threads, SoloTime: units.Second,
		Phases: []workload.Phase{{Duration: units.Second, Demand: 1}}}
	j := NewJob(workload.NewApp(p, name), 1, 0)
	j.PushSample(bbw)
	if done {
		for _, th := range j.App.Threads {
			th.AdvanceWork(float64(p.SoloTime))
		}
	}
	return j
}

// TestGangFirstFit checks gang round-robin over three quanta on four
// processors: first fit in list order, the ran jobs rotated to the
// tail after each quantum. The samples are chosen so that a fitness
// pass would pick differently: gang round-robin must ignore them.
func TestGangFirstFit(t *testing.T) {
	type gang struct {
		name    string
		threads int
		bbw     units.Rate
		done    bool
	}
	for _, tc := range []struct {
		name  string
		gangs []gang
		want  [3]string // the apps each quantum runs, in allocation order
	}{
		{"three pairs rotate", []gang{{"a", 2, 5, false}, {"b", 2, 1, false}, {"c", 2, 9, false}},
			[3]string{"a b", "c a", "b c"}},
		{"too big for what is left, ahead of one that fits",
			[]gang{{"a", 3, 5, false}, {"b", 2, 1, false}, {"c", 1, 9, false}},
			[3]string{"a c", "b c", "a c"}},
		{"finished gang skipped",
			[]gang{{"a", 2, 5, false}, {"d", 1, 9, true}, {"b", 2, 1, false}, {"c", 2, 9, false}},
			[3]string{"a b", "c a", "b c"}},
	} {
		g := tuned(t, "gang", Params{})
		for _, x := range tc.gangs {
			g.Add(gangJob(x.name, x.threads, x.bbw, x.done))
		}
		for q, want := range tc.want {
			var ran []string
			for _, p := range g.Schedule(nil) {
				if n := p.Thread.App.Instance; len(ran) == 0 || ran[len(ran)-1] != n {
					ran = append(ran, n)
				}
			}
			if got := strings.Join(ran, " "); got != want {
				t.Errorf("%s: quantum %d ran %q, want %q", tc.name, q+1, got, want)
			}
		}
	}
	if g := tuned(t, "gang", Params{}); g.Name() != "GangRR" || g.Quantum() != DefaultQuantum {
		t.Error("gang identity")
	}
}

func TestGangQuantumOption(t *testing.T) {
	if q := tuned(t, "gang", Params{Quantum: 50 * units.Millisecond}).Quantum(); q != 50*units.Millisecond {
		t.Errorf("gang quantum %v, want the 50ms Params.Quantum", q)
	}
	if q := tuned(t, "gang", Params{}).Quantum(); q != DefaultQuantum {
		t.Errorf("zero gang quantum should keep the default, got %v", q)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	r := &RoundRobin{numCPUs: 2}
	if r.Quantum() != LinuxQuantum {
		t.Error("RR quantum should be the Linux quantum")
	}
	a := NewJob(workload.NewApp(workload.BBMA(), "A"), 1, 0)
	b := NewJob(workload.NewApp(workload.BBMA(), "B"), 1, 0)
	c := NewJob(workload.NewApp(workload.BBMA(), "C"), 1, 0)
	r.Add(a)
	r.Add(b)
	r.Add(c)
	seen := map[*workload.App]int{}
	for q := 0; q < 6; q++ {
		pl := r.Schedule(nil)
		if len(pl) != 2 {
			t.Fatalf("RR placed %d on 2 CPUs", len(pl))
		}
		for _, p := range pl {
			seen[p.Thread.App]++
		}
	}
	// 12 slots over 3 single-thread apps: each gets exactly 4.
	for app, n := range seen {
		if n != 4 {
			t.Errorf("%s ran %d times, want 4", app.Instance, n)
		}
	}
	r.Remove(b)
	pl := r.Schedule(nil)
	for _, p := range pl {
		if p.Thread.App == b.App {
			t.Error("removed app scheduled")
		}
	}
	if r.Name() != "RR" {
		t.Error(r.Name())
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	r := &RoundRobin{numCPUs: 4}
	if pl := r.Schedule(nil); pl != nil {
		t.Error("empty RR produced placements")
	}
}

// All schedulers must produce placements a real Machine accepts, and
// in steady state every policy but Optimal, whose subset search builds
// its candidates afresh, schedules without allocating.
func TestSchedulersProduceValidPlacements(t *testing.T) {
	mkJobs := func() []*Job {
		return []*Job{
			NewJob(workload.NewApp(mustProfile(t, "CG"), "CG#1"), DefaultWindow, 0.4),
			NewJob(workload.NewApp(mustProfile(t, "Radiosity"), "R#1"), DefaultWindow, 0.4),
			NewJob(workload.NewApp(workload.BBMA(), "B#1"), DefaultWindow, 0.4),
			NewJob(workload.NewApp(workload.BBMA(), "B#2"), DefaultWindow, 0.4),
			NewJob(workload.NewApp(workload.NBBMA(), "n#1"), DefaultWindow, 0.4),
			NewJob(workload.NewApp(workload.NBBMA(), "n#2"), DefaultWindow, 0.4),
		}
	}
	for _, name := range Policies() {
		s, err := New(name, machine.DefaultConfig(), 3, Params{})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.Name(), func(t *testing.T) {
			m, err := machine.New(machine.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range mkJobs() {
				j.PushSample(j.TrueRate())
				s.Add(j)
			}
			for q := 0; q < 30; q++ {
				pl := s.Schedule(m)
				if _, err := m.Step(pl, s.Quantum()); err != nil {
					t.Fatalf("quantum %d: %v (placements %v)", q, err, pl)
				}
			}
			if n := testing.AllocsPerRun(10, func() { s.Schedule(m) }); n != 0 {
				t.Errorf("Schedule allocates %v objects per call in steady state, want 0", n)
			}
		})
	}
}

// BenchmarkSchedule prices one Schedule call of each policy — the
// scheduler-select hop of a stepped quantum — on the paper's mixed
// set (two BT instances, two BBMA, two nBBMA), after warm-up quanta
// have filled the sample windows and the machine's affinity state.
func BenchmarkSchedule(b *testing.B) {
	mix, err := workload.ParseMix("BT x2, BBMA x2, nBBMA x2")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range Policies() {
		b.Run(name, func(b *testing.B) {
			s, err := New(name, machine.DefaultConfig(), 1, Params{})
			if err != nil {
				b.Fatal(err)
			}
			m, err := machine.New(machine.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			var jobs []*Job
			for _, app := range mix.Build() {
				j := JobFor(s, app)
				jobs = append(jobs, j)
				s.Add(j)
			}
			for q := 0; q < 2*DefaultWindow; q++ {
				for _, j := range jobs {
					j.PushSample(j.TrueRate())
				}
				if _, err := m.Step(s.Schedule(m), s.Quantum()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(m)
			}
		})
	}
}
