package perfctr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"busaware/internal/units"
)

func TestAddRead(t *testing.T) {
	var c Counters
	c.Add(100)
	c.Add(23)
	if got := c.Read(); got != 123 {
		t.Errorf("read = %d, want 123", got)
	}
}

func TestHardwareWrap(t *testing.T) {
	var c Counters
	c.Add(counterMask) // max value
	c.Add(5)           // wraps to 4
	if got := c.Read(); got != 4 {
		t.Errorf("wrapped value = %d, want 4", got)
	}
}

// One Add of summed increments must leave the counter where the same
// increments added one by one leave it: each run starts just below the
// 40-bit wrap and mixes full-width and small increments, so the sums
// cross the hardware wrap and overflow uint64.
func TestSummedAddMatchesSequentialAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for run := 0; run < 200; run++ {
		var seq, batch Counters
		start := counterMask - uint64(rng.Intn(1<<20))
		seq.Add(start)
		batch.Add(start)
		var sum uint64
		for n := rng.Intn(40); n >= 0; n-- {
			inc := rng.Uint64() >> uint(rng.Intn(64))
			seq.Add(inc)
			sum += inc
		}
		batch.Add(sum)
		if got, want := batch.Read(), seq.Read(); got != want {
			t.Fatalf("run %d: summed Add %d, sequential Add %d", run, got, want)
		}
	}
}

func TestDeltaWithWrap(t *testing.T) {
	if d := Delta(Sample{Value: counterMask - 9}, Sample{Value: 5}); d != 15 {
		t.Errorf("wrap-corrected delta = %d, want 15", d)
	}
}

func TestDeltaNoWrap(t *testing.T) {
	if d := Delta(Sample{Value: 100}, Sample{Value: 350}); d != 250 {
		t.Errorf("delta = %d, want 250", d)
	}
}

func TestMonitorRates(t *testing.T) {
	var c Counters
	m := NewMonitor(&c)
	if _, ok := m.Poll(0); ok {
		t.Error("first poll should not produce a rate")
	}
	// 23.6 trans/usec for 100ms, the BBMA rate.
	c.Add(2_360_000)
	rate, ok := m.Poll(100 * units.Millisecond)
	if !ok {
		t.Fatal("second poll should produce a rate")
	}
	if rate < 23.59 || rate > 23.61 {
		t.Errorf("bus rate = %v, want 23.6", rate)
	}
}

func TestMonitorZeroElapsed(t *testing.T) {
	var c Counters
	m := NewMonitor(&c)
	m.Poll(50)
	if _, ok := m.Poll(50); ok {
		t.Error("zero-elapsed poll should not produce a rate")
	}
	if _, ok := m.Poll(40); ok {
		t.Error("backwards poll should not produce a rate")
	}
}

func TestMonitorSurvivesWrap(t *testing.T) {
	var c Counters
	c.Add(counterMask - 999)
	m := NewMonitor(&c)
	m.Poll(0)
	c.Add(2000) // wraps
	rate, ok := m.Poll(1000)
	if !ok {
		t.Fatal("poll failed")
	}
	if rate != 2.0 {
		t.Errorf("rate across wrap = %v, want 2.0", rate)
	}
}

// Property: Delta inverts Add modulo the hardware width for any pair
// of accumulations.
func TestDeltaAddInverseProperty(t *testing.T) {
	f := func(start, inc uint64) bool {
		start &= counterMask
		inc &= counterMask >> 1 // at most one wrap
		var c Counters
		c.Add(start)
		before := Sample{Value: c.Read()}
		c.Add(inc)
		after := Sample{Value: c.Read()}
		return Delta(before, after) == inc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
