package chaos

import (
	"testing"
	"time"
)

func TestNilInjectorInert(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if d := in.Decide(); d.Action != ActNone {
			t.Fatalf("nil injector injected %v", d.Action)
		}
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector accumulated stats: %+v", s)
	}
}

func TestDisabledConfigYieldsNil(t *testing.T) {
	in, err := New(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Fatal("zero-rate config must yield a nil (inert) injector")
	}
}

func TestValidateRejectsBadRates(t *testing.T) {
	if _, err := New(Config{Reset: Class{Prob: 1.5}}); err == nil {
		t.Fatal("probability > 1 must be rejected")
	}
	if _, err := New(Config{Corrupt: Class{Prob: -0.1}}); err == nil {
		t.Fatal("negative probability must be rejected")
	}
}

// TestDeterministicSchedule is the reproducibility contract the CI
// chaos gate relies on: same config, same event count, same schedule.
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{
		Seed:       7,
		Reset:      Class{Prob: 0.1},
		Corrupt:    Class{Prob: 0.1},
		Err5xx:     Class{Prob: 0.05},
		Latency:    Class{Prob: 0.05},
		LatencyDur: 100 * time.Millisecond,
	}
	run := func() ([]Decision, Stats) {
		in, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Decision, 0, 1000)
		for i := 0; i < 1000; i++ {
			out = append(out, in.Decide())
		}
		return out, in.Stats()
	}
	a, sa := run()
	b, sb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	if injected(sa) == 0 {
		t.Fatal("schedule injected nothing at these rates over 1000 events")
	}
}

// injected sums every fault class of s (Events excluded).
func injected(s Stats) (n uint64) {
	for _, c := range s.counts() {
		n += *c
	}
	return n
}

// TestInertAtZeroPerClass: enabling one class must not change another
// class's (empty) schedule — the faults-package independence rule.
func TestInertAtZeroPerClass(t *testing.T) {
	in, err := New(Config{Seed: 3, Reset: Class{Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if d := in.Decide(); d.Action != ActReset {
			t.Fatalf("event %d: got %v, want every event reset", i, d.Action)
		}
	}
	s := in.Stats()
	if s.Resets != 50 || injected(s) != 50 {
		t.Fatalf("zero-rate classes fired: %+v", s)
	}
}

// TestBudgetCapsClass: once Max faults have been injected, the class
// goes quiet — this is what makes injected counts run-constant.
func TestBudgetCapsClass(t *testing.T) {
	in, err := New(Config{Seed: 11, Reset: Class{Prob: 1, Max: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d := in.Decide()
		if i < 5 && d.Action != ActReset {
			t.Fatalf("event %d: want reset within budget, got %v", i, d.Action)
		}
		if i >= 5 && d.Action != ActNone {
			t.Fatalf("event %d: budget spent but still injected %v", i, d.Action)
		}
	}
	if s := in.Stats(); s.Resets != 5 || s.Events != 100 {
		t.Fatalf("stats %+v, want 5 resets over 100 events", s)
	}
}

// TestPriorityShadowing: when several classes hit one event, the
// loudest (earliest in class order) wins and the others are shadowed,
// not injected.
func TestPriorityShadowing(t *testing.T) {
	in, err := New(Config{Seed: 1, Blackhole: Class{Prob: 1}, Corrupt: Class{Prob: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if d := in.Decide(); d.Action != ActBlackhole {
			t.Fatalf("event %d: got %v, want blackhole to outrank corrupt", i, d.Action)
		}
	}
	if s := in.Stats(); s.Corrupts != 0 || s.Blackholes != 20 {
		t.Fatalf("shadowed class counted: %+v", s)
	}
}

func TestParseScript(t *testing.T) {
	cases := []struct {
		script  string
		want    Config
		wantErr bool
	}{
		{script: "", want: Config{Seed: 9}},
		{
			script: "reset=0.04*24,corrupt=0.04*24,latency=0.008:800ms*24,err5xx=0.02*8",
			want: Config{
				Seed:       9,
				Reset:      Class{Prob: 0.04, Max: 24},
				Corrupt:    Class{Prob: 0.04, Max: 24},
				Latency:    Class{Prob: 0.008, Max: 24},
				LatencyDur: 800 * time.Millisecond,
				Err5xx:     Class{Prob: 0.02, Max: 8},
			},
		},
		{
			script: "blackhole=0.01, truncate=0.5*2",
			want: Config{
				Seed:      9,
				Blackhole: Class{Prob: 0.01},
				Truncate:  Class{Prob: 0.5, Max: 2},
			},
		},
		{script: "warp=0.1", wantErr: true},
		{script: "reset", wantErr: true},
		{script: "reset=lots", wantErr: true},
		{script: "reset=0.1:5s", wantErr: true}, // duration on non-latency class
		{script: "latency=0.1:nonsense", wantErr: true},
		{script: "reset=0.1*-3", wantErr: true},
		{script: "corrupt=1.5", wantErr: true}, // Validate catches out-of-range
	}
	for _, tc := range cases {
		got, err := ParseScript(9, tc.script)
		if tc.wantErr {
			if err == nil {
				t.Errorf("script %q: want error, got %+v", tc.script, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("script %q: %v", tc.script, err)
			continue
		}
		if got != tc.want {
			t.Errorf("script %q:\n got %+v\nwant %+v", tc.script, got, tc.want)
		}
	}
}
