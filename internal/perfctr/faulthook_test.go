package perfctr

import (
	"testing"

	"busaware/internal/faults"
	"busaware/internal/units"
)

// scriptedHook drops polls per a fixed script and scales rates.
type scriptedHook struct {
	drops []bool
	calls int
	scale float64
}

func (h *scriptedHook) DropCounterSample() bool {
	if h.calls >= len(h.drops) {
		return false
	}
	d := h.drops[h.calls]
	h.calls++
	return d
}

func (h *scriptedHook) PerturbCounterRate(v float64) float64 {
	if h.scale == 0 {
		return v
	}
	return v * h.scale
}

// A dropped poll keeps the baseline, so the reading goes stale and the
// next successful poll averages over the whole gap — nothing is lost.
func TestMonitorDroppedPollGoesStale(t *testing.T) {
	var c Counters
	m := NewMonitor(&c)
	m.Poll(0) // baseline
	hook := &scriptedHook{drops: []bool{true, false}}
	m.SetFaultHook(hook)

	c.Add(1000)
	if _, ok := m.Poll(100); ok {
		t.Fatal("dropped poll reported ok")
	}
	c.Add(1000)
	rate, ok := m.Poll(200)
	if !ok {
		t.Fatal("recovery poll failed")
	}
	// 2000 transactions over the full 200us gap, not 1000 over 100us.
	if rate != 10 {
		t.Errorf("recovered rate = %v trans/us, want 10 (gap-spanning)", rate)
	}
}

func TestMonitorPerturbedRates(t *testing.T) {
	var c Counters
	m := NewMonitor(&c)
	m.Poll(0)
	m.SetFaultHook(&scriptedHook{scale: 2})
	c.Add(500)
	rate, ok := m.Poll(100)
	if !ok {
		t.Fatal("poll failed")
	}
	if rate != 10 {
		t.Errorf("perturbed rate = %v, want 5*2", rate)
	}
}

// Each successful poll perturbs its one rate once: n polls through a
// CounterNoise injector count n perturbations, and a dropped or
// baseline poll counts none.
func TestMonitorPerturbsOncePerPoll(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 3, CounterNoise: 0.2})
	var c Counters
	m := NewMonitor(&c)
	m.SetFaultHook(inj)
	m.Poll(0) // baseline
	const n = 25
	for i := 1; i <= n; i++ {
		c.Add(1000)
		if _, ok := m.Poll(units.Time(100 * i)); !ok {
			t.Fatalf("poll %d failed", i)
		}
	}
	if got := inj.Stats().CountersPerturbed; got != n {
		t.Errorf("CountersPerturbed = %d after %d successful polls, want %d", got, n, n)
	}
}

// The faults.Injector plugs straight into the monitor, and a nil hook
// (or detached hook) restores stock behaviour.
func TestMonitorInjectorIntegration(t *testing.T) {
	var hook FaultHook = faults.New(faults.Config{Seed: 1, CounterLoss: 1})
	var c Counters
	m := NewMonitor(&c)
	m.Poll(0)
	m.SetFaultHook(hook)
	c.Add(10)
	if _, ok := m.Poll(units.Time(50)); ok {
		t.Error("CounterLoss=1 injector let a poll through")
	}
	m.SetFaultHook(nil)
	rate, ok := m.Poll(units.Time(100))
	if !ok || rate != 0.1 {
		t.Errorf("detached monitor poll = (%v, %v), want (0.1, true)", rate, ok)
	}
}
