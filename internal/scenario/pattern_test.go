package scenario

import (
	"math"
	"strings"
	"testing"

	"busaware/internal/units"
)

func TestParsePatternErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"empty", "", "empty track"},
		{"whitespace", "   ", "empty track"},
		{"empty track in sum", "step:1s@2 + ", "empty track"},
		{"bare word", "nonsense", "want kind:dur@params"},
		{"unknown kind", "warp:10s@4", "unknown kind"},
		{"missing params", "step:10s", "missing '@params'"},
		{"bad duration", "step:fast@4", "bad duration"},
		{"zero duration", "step:0s@4", "non-positive duration"},
		{"negative duration", "step:-5s@4", "out of range"},
		{"huge duration", "step:99999h@4", "out of range"},
		{"bad level", "step:10s@loud", "bad level"},
		{"negative level", "step:10s@-3", "out of range"},
		{"huge level", "step:10s@1e300", "out of range"},
		{"nan level", "step:10s@NaN", "bad level"},
		{"ramp missing to", "ramp:10s@4", "want @from..to"},
		{"ramp bad to", "ramp:10s@4..x", "bad level"},
		{"spike missing peak", "spike:10s@4", "want @from..to"},
		{"sine missing amp", "sine:10s@4", "want @mean~amp"},
		{"sine bad period", "sine:10s@4~2/zero", "bad duration"},
		{"sine zero period", "sine:10s@4~2/0s", "non-positive period"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePattern(tc.in)
			if err == nil {
				t.Fatalf("ParsePattern(%q): want error containing %q, got nil", tc.in, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParsePattern(%q): error %q does not contain %q", tc.in, err, tc.want)
			}
		})
	}
}

func TestLevelInterpolation(t *testing.T) {
	const s = units.Second
	cases := []struct {
		name    string
		pattern string
		at      units.Time
		want    float64
	}{
		{"step holds", "step:10s@4", 5 * s, 4},
		{"step holds past end", "step:10s@4", 30 * s, 4},
		{"ramp start", "ramp:10s@2..12", 0, 2},
		{"ramp midpoint", "ramp:10s@2..12", 5 * s, 7},
		{"ramp holds end level past end", "ramp:10s@2..12", 20 * s, 12},
		{"spike base at start", "spike:10s@4..60", 0, 4},
		{"spike peak at midpoint", "spike:10s@4..60", 5 * s, 60},
		{"spike halfway up", "spike:10s@4..60", 2500 * units.Millisecond, 32},
		{"spike back to base", "spike:10s@4..60", 10 * s, 4},
		{"sine mean at start", "sine:60s@10~8", 0, 10},
		{"sine peak at quarter period", "sine:60s@10~8", 15 * s, 18},
		{"sine explicit period peak", "sine:60s@10~8/20s", 5 * s, 18},
		{"segments chain", "step:10s@4; ramp:10s@4..8", 15 * s, 6},
		{"tracks sum", "step:10s@4 + step:20s@3", 5 * s, 7},
		{"short track holds under long", "step:30s@4 + spike:10s@0..6", 20 * s, 4},
		{"negative time clamps", "ramp:10s@2..12", -5 * s, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := ParsePattern(tc.pattern)
			if err != nil {
				t.Fatalf("ParsePattern(%q): %v", tc.pattern, err)
			}
			got := p.Level(tc.at)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("Level(%v) on %q = %v, want %v", tc.at, tc.pattern, got, tc.want)
			}
		})
	}
}

func TestSineClampsAtZero(t *testing.T) {
	p, err := ParsePattern("sine:40s@2~8")
	if err != nil {
		t.Fatal(err)
	}
	// Trough is mean-amp = -6, clamped to 0 at 3/4 period.
	if got := p.Level(30 * units.Second); got != 0 {
		t.Fatalf("sine trough = %v, want clamp to 0", got)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical rendering
	}{
		{"step:10s@4", "step:10s@4"},
		{"step:10s@4;spike:10s@4..60", "step:10s@4; spike:10s@4..60"},
		{"step:10s@4 spike:10s@4..60", "step:10s@4; spike:10s@4..60"},
		{"ramp:1500ms@0..2.5", "ramp:1500ms@0..2.5"},
		{"sine:60s@10~8/60s", "sine:60s@10~8"},
		{"sine:60s@10~8/20s", "sine:60s@10~8/20s"},
		{"step:10s@4+step:5s@1", "step:10s@4 + step:5s@1"},
		{"diurnal", "sine:60s@10~8"},
		{"flashcrowd", "step:10s@4; spike:10s@4..60; step:20s@4"},
		{"stepstorm", "step:8s@2; step:8s@8; step:8s@16; step:8s@32; step:8s@4"},
		{"diurnal + step:5s@1", "sine:60s@10~8 + step:5s@1"},
	}
	for _, tc := range cases {
		p, err := ParsePattern(tc.in)
		if err != nil {
			t.Fatalf("ParsePattern(%q): %v", tc.in, err)
		}
		got := p.String()
		if got != tc.want {
			t.Fatalf("ParsePattern(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		// The canonical form must itself parse back to the same canonical
		// form (a fixed point), and to the same levels.
		p2, err := ParsePattern(got)
		if err != nil {
			t.Fatalf("canonical %q does not re-parse: %v", got, err)
		}
		if p2.String() != got {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", got, p2.String())
		}
		for _, at := range []units.Time{0, units.Second, 7 * units.Second, p.Duration()} {
			if a, b := p.Level(at), p2.Level(at); a != b {
				t.Fatalf("round-trip of %q changes Level(%v): %v vs %v", tc.in, at, a, b)
			}
		}
	}
}

func TestPresetsAllParse(t *testing.T) {
	for _, name := range Presets() {
		p, err := ParsePattern(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if p.Duration() <= 0 {
			t.Fatalf("preset %q has zero duration", name)
		}
	}
}

func TestPhases(t *testing.T) {
	p, err := ParsePattern("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	phases := p.Phases()
	if len(phases) != 3 {
		t.Fatalf("flashcrowd phases = %d, want 3", len(phases))
	}
	wantNames := []string{"step#0", "spike#1", "step#2"}
	for i, ph := range phases {
		if ph.Name != wantNames[i] {
			t.Fatalf("phase %d = %q, want %q", i, ph.Name, wantNames[i])
		}
	}
	if phases[1].Kind != SegSpike {
		t.Fatalf("phase 1 kind = %v, want spike", phases[1].Kind)
	}
	if phases[1].Start != 10*units.Second || phases[1].End != 20*units.Second {
		t.Fatalf("spike phase bounds = [%v, %v), want [10s, 20s)", phases[1].Start, phases[1].End)
	}
	if got := p.PhaseAt(15 * units.Second); got != 1 {
		t.Fatalf("PhaseAt(15s) = %d, want 1", got)
	}
	if got := p.PhaseAt(0); got != 0 {
		t.Fatalf("PhaseAt(0) = %d, want 0", got)
	}
	// Beyond the end: clamped to the last phase.
	if got := p.PhaseAt(10 * units.Second * 60); got != 2 {
		t.Fatalf("PhaseAt(beyond end) = %d, want 2", got)
	}
}

func TestParsePatternWithProfiles(t *testing.T) {
	profiles := map[string]string{"rush": "ramp:10s@2..40"}
	p, err := ParsePatternWith("rush + step:5s@1", profiles)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "ramp:10s@2..40 + step:5s@1"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	// Profiles shadow nothing built in and resolve one level deep only.
	if _, err := ParsePatternWith("rush", map[string]string{"rush": "alias"}); err == nil {
		t.Fatal("profile body that is itself a name must not resolve")
	}
}

func TestArrivalsDeterministicAndRateAccurate(t *testing.T) {
	p, err := ParsePattern("step:10s@20")
	if err != nil {
		t.Fatal(err)
	}
	a := p.Arrivals(1)
	b := p.Arrivals(1)
	if len(a) != len(b) {
		t.Fatalf("rerun lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rerun diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// 20 rps for 10s = 200 arrivals, exactly (integer crossings of an
	// exact integral).
	if len(a) != 200 {
		t.Fatalf("arrivals = %d, want 200", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
	if last := a[len(a)-1]; last > 10*units.Second {
		t.Fatalf("last arrival %v beyond pattern end", last)
	}
	// Scale doubles the count.
	if got := len(p.Arrivals(2)); got != 400 {
		t.Fatalf("Arrivals(2) = %d, want 400", got)
	}
	if got := p.Arrivals(0); got != nil {
		t.Fatalf("Arrivals(0) = %v, want nil", got)
	}
}
