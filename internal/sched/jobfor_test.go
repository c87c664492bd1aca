package sched

import (
	"testing"

	"busaware/internal/workload"
)

// TestJobFor checks that each policy decides its jobs' sampling state:
// a bandwidth-aware policy's window and, under EWMA, the policy's
// weight; one sample for everything else.
func TestJobFor(t *testing.T) {
	p, ok := workload.ByName("CG")
	if !ok {
		t.Fatal("no profile CG")
	}
	app := workload.NewApp(p, "CG#1")
	for _, tc := range []struct {
		name   string
		s      Scheduler
		window int
		alpha  float64 // 0 = no EWMA
	}{
		{"ewma", tuned(t, "ewma", Params{}), DefaultWindow, 0.4},
		{"quanta window", tuned(t, "window", Params{}), DefaultWindow, 0},
		{"quanta window W=9", tuned(t, "window", Params{Window: 9}), 9, 0},
		{"latest quantum", tuned(t, "latest", Params{}), 1, 0},
		{"linux", newLinux(4, 1), 1, 0},
		{"gang", tuned(t, "gang", Params{}), 1, 0},
	} {
		j := JobFor(tc.s, app)
		if j.App != app {
			t.Errorf("%s: job wraps %v, want the app", tc.name, j.App)
		}
		// A window holds at most its capacity: push well past it.
		j.PushSamples(1, 100)
		if got := j.window.Len(); got != tc.window {
			t.Errorf("%s: window %d samples, want %d", tc.name, got, tc.window)
		}
		switch {
		case tc.alpha == 0 && j.ewma != nil:
			t.Errorf("%s: job keeps an EWMA (alpha %v), want none", tc.name, j.ewma.Alpha)
		case tc.alpha != 0 && j.ewma == nil:
			t.Errorf("%s: job keeps no EWMA, want alpha %v", tc.name, tc.alpha)
		case tc.alpha != 0 && j.ewma.Alpha != tc.alpha:
			t.Errorf("%s: EWMA alpha %v, want %v", tc.name, j.ewma.Alpha, tc.alpha)
		}
	}
}
