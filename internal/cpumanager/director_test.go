package cpumanager

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"busaware/internal/machine"
	"busaware/internal/sched"
	"busaware/internal/units"
)

// newDirector builds a manager and a director enforcing the named
// policy on the paper machine.
func newDirector(t *testing.T, policy string) (*Manager, *Director) {
	t.Helper()
	mgr, err := NewManager(200 * units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(policy, machine.DefaultConfig(), 1, sched.Params{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDirector(mgr, s)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, d
}

func TestDirectorValidation(t *testing.T) {
	if _, err := NewDirector(nil, nil); err == nil {
		t.Error("nil arguments accepted")
	}
}

func TestDirectorAdmitsEveryoneWhenIdle(t *testing.T) {
	mgr, d := newDirector(t, "window")
	a, _ := mgr.connect("A", 2)
	b, _ := mgr.connect("B", 2)
	a.Arena.Publish(0.5, 100)
	b.Arena.Publish(0.5, 100)
	out := d.Tick()
	if len(out.Sessions) != 2 || out.Blocked != 0 {
		t.Errorf("admitted %d blocked %d, want both admitted", len(out.Sessions), out.Blocked)
	}
	if len(d.jobs) != 2 {
		t.Errorf("tracked jobs = %d", len(d.jobs))
	}
}

func TestDirectorPairsHungryWithIdle(t *testing.T) {
	mgr, d := newDirector(t, "window")
	cg, _ := mgr.connect("CG#1", 2)
	b1, _ := mgr.connect("BBMA#1", 1)
	b2, _ := mgr.connect("BBMA#2", 1)
	n1, _ := mgr.connect("nBBMA#1", 1)
	n2, _ := mgr.connect("nBBMA#2", 1)
	publish := func(now units.Time) {
		cg.Arena.Publish(23.31, now)
		b1.Arena.Publish(23.6, now)
		b2.Arena.Publish(23.6, now)
		n1.Arena.Publish(0.0037, now)
		n2.Arena.Publish(0.0037, now)
	}
	// Warm up estimates, then inspect the steady-state quanta.
	cgWithB := 0
	for q := 0; q < 20; q++ {
		publish(units.Time(q+1) * 200 * units.Millisecond)
		out := d.Tick()
		in := map[*Session]bool{}
		for _, s := range out.Sessions {
			in[s] = true
		}
		if q >= 4 && in[cg] && (in[b1] || in[b2]) {
			cgWithB++
		}
	}
	if cgWithB > 3 {
		t.Errorf("CG co-scheduled with BBMA in %d steady-state quanta; policy should pair it with nBBMA", cgWithB)
	}
}

func TestDirectorEnforcesWithSignals(t *testing.T) {
	mgr, d := newDirector(t, "window")
	// Six single-thread antagonists on four CPUs: someone must block.
	var sessions []*Session
	for i := 0; i < 6; i++ {
		s, _ := mgr.connect("B", 1)
		sessions = append(sessions, s)
	}
	for q := 0; q < 3; q++ {
		for i, s := range sessions {
			s.Arena.Publish(23.6, units.Time(q*200+i)*units.Millisecond)
		}
		out := d.Tick()
		if len(out.Sessions) > 4 {
			t.Fatalf("admitted %d sessions on 4 CPUs", len(out.Sessions))
		}
		if out.Blocked == 0 {
			t.Error("oversubscribed quantum blocked nobody")
		}
	}
	if mgr.SignalsSent() == 0 {
		t.Error("no signals sent")
	}
	// Blocked sessions really are blocked; admitted ones are not.
	out := d.Tick()
	admitted := map[*Session]bool{}
	for _, s := range out.Sessions {
		admitted[s] = true
	}
	for _, s := range sessions {
		if admitted[s] && s.Blocked() {
			t.Error("admitted session left blocked")
		}
	}
}

func TestDirectorDropsDeadSessions(t *testing.T) {
	mgr, d := newDirector(t, "window")
	a, _ := mgr.connect("A", 1)
	d.Tick()
	if len(d.jobs) != 1 {
		t.Fatalf("jobs = %d", len(d.jobs))
	}
	if err := mgr.disconnect(a.ID); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	if len(d.jobs) != 0 {
		t.Errorf("jobs after disconnect = %d", len(d.jobs))
	}
}

func TestDirectorIgnoresStaleArenas(t *testing.T) {
	mgr, d := newDirector(t, "window")
	a, _ := mgr.connect("A", 1)
	// Publish once at t=0; after many quanta the page is stale, so the
	// old estimate persists but no new samples are pushed (no panic,
	// no starvation).
	a.Arena.Publish(5, 0)
	for q := 0; q < 10; q++ {
		out := d.Tick()
		if len(out.Sessions) != 1 {
			t.Fatalf("sole session not admitted at quantum %d", q)
		}
	}
}

// The director enforces any policy of the table, not only the
// bandwidth-aware family. Gang round-robin admits whole gangs first
// fit in list order and rotates them to the tail; the Linux baseline
// places threads, and over one epoch each of six single-thread
// sessions runs its two quanta. Every session left out is signalled.
func TestDirectorNonBandwidthPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy  string
		threads []int
		want    []string // the sessions each quantum admits, in order
	}{
		{"gang", []int{2, 2, 2}, []string{"s0 s1", "s2 s0", "s1 s2", "s0 s1"}},
		{"linux", []int{1, 1, 1, 1, 1, 1}, []string{"s0 s1 s2 s3", "s4 s5 s0 s1", "s2 s3 s4 s5"}},
	} {
		mgr, d := newDirector(t, tc.policy)
		var sessions []*Session
		for i, n := range tc.threads {
			s, err := mgr.connect(fmt.Sprintf("s%d", i), n)
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, s)
		}
		for q, want := range tc.want {
			out := d.Tick()
			var got []string
			admitted := map[*Session]bool{}
			for _, s := range out.Sessions {
				got = append(got, s.Instance)
				admitted[s] = true
			}
			if strings.Join(got, " ") != want {
				t.Errorf("%s: quantum %d admitted %v, want %s", tc.policy, q+1, got, want)
			}
			if out.Blocked != len(sessions)-len(out.Sessions) {
				t.Errorf("%s: quantum %d blocked %d of %d sessions with %d admitted",
					tc.policy, q+1, out.Blocked, len(sessions), len(out.Sessions))
			}
			// Signals count (SignalState), so only the first quantum's
			// left-out sessions are certainly blocked; an admitted one is
			// always runnable.
			for _, s := range sessions {
				if admitted[s] && s.Blocked() || q == 0 && !admitted[s] && !s.Blocked() {
					t.Errorf("%s: quantum %d: %s blocked=%v, admitted=%v", tc.policy, q+1, s.Instance, s.Blocked(), admitted[s])
				}
			}
		}
	}
}

// Under the stale fallback, Schedule settles each job's staleness
// before it selects, so admission must come from that same selection:
// the admitted sessions are exactly the jobs rotated to the list tail.
// BBMA#2 publishes only in the first quantum. Once it has run without
// a fresh sample, the settle demotes it to round-robin admission, and
// the other BBMAs, tied with it on fitness, take the free processors.
func TestDirectorAdmitsWhatItRotates(t *testing.T) {
	mgr, err := NewManager(200 * units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New("window", machine.DefaultConfig(), 1, sched.Params{StaleQuanta: 1})
	if err != nil {
		t.Fatal(err)
	}
	policy := s.(*sched.BandwidthAware)
	d, err := NewDirector(mgr, s)
	if err != nil {
		t.Fatal(err)
	}
	type app struct {
		name    string
		threads int
		rate    units.Rate
	}
	apps := []app{{"nBBMA#1", 1, 0.0037}, {"BBMA#1", 1, 23.6}, {"BBMA#2", 1, 23.6}, {"BBMA#3", 1, 23.6}, {"BBMA#4", 1, 23.6}}
	var sessions []*Session
	for _, a := range apps {
		s, err := mgr.connect(a.name, a.threads)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	for q := 0; q < 12; q++ {
		now := units.Time(q+1) * 200 * units.Millisecond
		for i, s := range sessions {
			if apps[i].name != "BBMA#2" || q == 0 {
				s.Arena.Publish(apps[i].rate, now)
			}
		}
		out := d.Tick()
		jobs := policy.Jobs()
		if len(out.Sessions) > len(jobs) {
			t.Fatalf("quantum %d: %d admitted, %d jobs", q, len(out.Sessions), len(jobs))
		}
		admitted := map[string]bool{}
		for _, s := range out.Sessions {
			admitted[s.Instance] = true
		}
		rotated := map[string]bool{}
		for _, j := range jobs[len(jobs)-len(out.Sessions):] {
			rotated[j.App.Instance] = true
		}
		if !maps.Equal(admitted, rotated) {
			t.Errorf("quantum %d: admitted %v, rotated to the tail %v", q, admitted, rotated)
		}
	}
}
