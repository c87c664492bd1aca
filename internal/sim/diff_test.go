package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"busaware/internal/timeline"
	"busaware/internal/trace"
)

// TestDiffRunsNamesPaths checks the shadow comparator: it reaches every
// Result field without a hand-kept list, names the path that differs,
// compares floats by their bits, leaves LeaptQuanta out, and covers the
// sealed timeline and the Chrome-trace bytes.
func TestDiffRunsNamesPaths(t *testing.T) {
	base := Result{Scheduler: "QuantaWindow", Quanta: 10, Apps: []AppResult{{Instance: "CG#1", Slowdown: 1.5}}}
	same := base
	same.Apps = append([]AppResult(nil), base.Apps...)
	same.LeaptQuanta = 7
	if d := diffResults(base, same); len(d) != 0 {
		t.Errorf("equal results (LeaptQuanta aside) differ: %v", d)
	}

	other := same
	other.Apps = []AppResult{{Instance: "CG#1", Slowdown: math.Nextafter(1.5, 2)}}
	other.FaultStats.Crashes = 1
	other.ScenarioCompleted = 2
	wantLines(t, diffResults(base, other), "result.Apps[0].Slowdown: ", "result.FaultStats.Crashes: ", "result.ScenarioCompleted: ")
	if d := diffResults(base, Result{Scheduler: "QuantaWindow", Quanta: 10}); len(d) != 1 || d[0] != "result.Apps: length 1 vs 0" {
		t.Errorf("app-count diff = %v", d)
	}

	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	if d := diffValue(nil, "x", reflect.ValueOf(nan), reflect.ValueOf(nan)); len(d) != 0 {
		t.Errorf("NaN differs from its own bits: %v", d)
	}
	if d := diffValue(nil, "x", reflect.ValueOf(0.0), reflect.ValueOf(negZero)); len(d) != 1 {
		t.Errorf("0 and -0 compare equal: %v", d)
	}

	mk := func(util float64) *Config {
		col := timeline.MustNew(timeline.Config{QuantaPerWindow: 2})
		tr := &trace.Timeline{}
		s := timeline.Sample{DurUsec: 100, Utilization: util, Placed: 1}
		col.RecordQuanta(s, 3)
		col.Seal()
		tr.RecordQuanta(s, []trace.Slice{{CPU: 0, Label: "CG#1/0", Speed: 1}}, 3)
		return &Config{Timeline: col, Trace: tr}
	}
	if d := diffRuns(base, base, mk(0.5), mk(0.5)); len(d) != 0 {
		t.Errorf("identical runs differ: %v", d)
	}
	wantLines(t, diffRuns(base, base, mk(0.5), mk(0.75)), "timeline.Windows[0].UtilSum: ", "timeline.Windows[0].UtilMax: ", "trace: ")
}

// wantLines fails unless every prefix starts some line of d.
func wantLines(t *testing.T, d []string, prefixes ...string) {
	t.Helper()
	for _, p := range prefixes {
		found := false
		for _, line := range d {
			found = found || strings.HasPrefix(line, p)
		}
		if !found {
			t.Errorf("no diff line starting %q in %v", p, d)
		}
	}
}
