package experiments

import (
	"reflect"
	"testing"
)

func TestDegradation(t *testing.T) {
	opt := Options{LinuxSeeds: []int64{1}}
	rates := []float64{0, 0.3, 0.5}
	points, err := Degradation(opt, rates, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(DegradationClasses) * len(rates); len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}

	for _, p := range points {
		t.Logf("%-12s rate=%.2f  LQ=%+6.1f%%  QW=%+6.1f%% (faults LQ=%d QW=%d)",
			p.Class, p.Rate, p.LQImprovement, p.QWImprovement,
			p.LQFaults.Total(), p.QWFaults.Total())
		// Rate-0 rows must be fault-free — the injector is inert.
		if p.Rate == 0 && (p.LQFaults.Total() != 0 || p.QWFaults.Total() != 0) {
			t.Errorf("%s@0: faults injected: LQ=%+v QW=%+v", p.Class, p.LQFaults, p.QWFaults)
		}
		if p.Rate > 0 && p.LQFaults.Total() == 0 && p.QWFaults.Total() == 0 {
			t.Errorf("%s@%.2f: no faults injected", p.Class, p.Rate)
		}
		// Fail-soft gate: even losing ≥30% of bandwidth samples, the
		// degraded policies must stay no worse than clean Linux.
		if p.Class == ClassSampleLoss && p.Rate >= 0.3 {
			if p.LQImprovement < 0 {
				t.Errorf("sample-loss@%.2f: LQ fell below Linux (%.1f%%)", p.Rate, p.LQImprovement)
			}
			if p.QWImprovement < 0 {
				t.Errorf("sample-loss@%.2f: QW fell below Linux (%.1f%%)", p.Rate, p.QWImprovement)
			}
		}
	}

	// The sweep is deterministic per seed, at any worker count.
	again, err := Degradation(Options{LinuxSeeds: []int64{1}, Workers: 2}, rates, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, again) {
		t.Error("degradation sweep not deterministic across worker counts")
	}
}
