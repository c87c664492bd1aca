package perfctr

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"busaware/internal/units"
)

func TestAddRead(t *testing.T) {
	var c Counters
	c.Add(EventBusTransAny, 100)
	c.Add(EventBusTransAny, 23)
	if got := c.Read(EventBusTransAny); got != 123 {
		t.Errorf("read = %d, want 123", got)
	}
	if got := c.Read(EventCycles); got != 0 {
		t.Errorf("untouched counter = %d, want 0", got)
	}
}

func TestOutOfRangeEventIgnored(t *testing.T) {
	var c Counters
	c.Add(Event(-1), 5)
	c.Add(Event(99), 5)
	if got := c.Read(Event(-1)); got != 0 {
		t.Errorf("read invalid = %d", got)
	}
	if got := c.Read(Event(99)); got != 0 {
		t.Errorf("read invalid = %d", got)
	}
	for ev := Event(0); ev < Event(NumEvents); ev++ {
		if c.Read(ev) != 0 {
			t.Errorf("event %v polluted by invalid add", ev)
		}
	}
}

func TestHardwareWrap(t *testing.T) {
	var c Counters
	c.Add(EventCycles, counterMask) // max value
	c.Add(EventCycles, 5)           // wraps to 4
	if got := c.Read(EventCycles); got != 4 {
		t.Errorf("wrapped value = %d, want 4", got)
	}
}

// AddAll of summed increments must leave every event where the same
// increments added one by one with Add leave it: each run starts just
// below the 40-bit wrap and mixes full-width and small increments, so
// the sums cross the hardware wrap and overflow uint64.
func TestAddAllMatchesSequentialAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for run := 0; run < 200; run++ {
		var seq, batch Counters
		var sum [NumEvents]uint64
		for ev := Event(0); ev < Event(NumEvents); ev++ {
			start := counterMask - uint64(rng.Intn(1<<20))
			seq.Add(ev, start)
			batch.Add(ev, start)
		}
		for n := rng.Intn(40); n >= 0; n-- {
			for ev := range sum {
				inc := rng.Uint64() >> uint(rng.Intn(64))
				seq.Add(Event(ev), inc)
				sum[ev] += inc
			}
		}
		batch.AddAll(sum)
		if got, want := batch.Snapshot(), seq.Snapshot(); got != want {
			t.Fatalf("run %d: AddAll %v, sequential Add %v", run, got, want)
		}
	}
}

func TestDeltaWithWrap(t *testing.T) {
	earlier := Sample{Values: [NumEvents]uint64{0: counterMask - 9}}
	later := Sample{Values: [NumEvents]uint64{0: 5}}
	d := Delta(earlier, later)
	if d[0] != 15 {
		t.Errorf("wrap-corrected delta = %d, want 15", d[0])
	}
}

func TestDeltaNoWrap(t *testing.T) {
	earlier := Sample{Values: [NumEvents]uint64{1: 100}}
	later := Sample{Values: [NumEvents]uint64{1: 350}}
	d := Delta(earlier, later)
	if d[1] != 250 {
		t.Errorf("delta = %d, want 250", d[1])
	}
}

func TestMonitorRates(t *testing.T) {
	var c Counters
	m := NewMonitor(&c)
	if _, ok := m.Poll(0); ok {
		t.Error("first poll should not produce rates")
	}
	// 23.6 trans/usec for 100ms, the BBMA rate.
	c.Add(EventBusTransAny, 2_360_000)
	rates, ok := m.Poll(100 * units.Millisecond)
	if !ok {
		t.Fatal("second poll should produce rates")
	}
	if got := rates[EventBusTransAny]; got < 23.59 || got > 23.61 {
		t.Errorf("bus rate = %v, want 23.6", got)
	}
}

func TestMonitorZeroElapsed(t *testing.T) {
	var c Counters
	m := NewMonitor(&c)
	m.Poll(50)
	if _, ok := m.Poll(50); ok {
		t.Error("zero-elapsed poll should not produce rates")
	}
	if _, ok := m.Poll(40); ok {
		t.Error("backwards poll should not produce rates")
	}
}

func TestMonitorSurvivesWrap(t *testing.T) {
	var c Counters
	c.Add(EventBusTransAny, counterMask-999)
	m := NewMonitor(&c)
	m.Poll(0)
	c.Add(EventBusTransAny, 2000) // wraps
	rates, ok := m.Poll(1000)
	if !ok {
		t.Fatal("poll failed")
	}
	if got := rates[EventBusTransAny]; got != 2.0 {
		t.Errorf("rate across wrap = %v, want 2.0", got)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	var c Counters
	c.Add(EventL2Refs, 7)
	c.Add(EventL2Misses, 3)
	s := c.Snapshot()
	if s[EventL2Refs] != 7 || s[EventL2Misses] != 3 {
		t.Errorf("snapshot = %v", s)
	}
	c.Reset()
	if c.Read(EventL2Refs) != 0 {
		t.Error("reset did not clear counters")
	}
}

func TestEventNames(t *testing.T) {
	names := map[Event]string{
		EventCycles:      "CYCLES",
		EventBusTransAny: "BUS_TRAN_ANY",
		EventL2Refs:      "L2_REFS",
		EventL2Misses:    "L2_MISSES",
	}
	for ev, want := range names {
		if ev.String() != want {
			t.Errorf("%d.String() = %q, want %q", ev, ev.String(), want)
		}
	}
	if Event(42).String() != "EVENT(42)" {
		t.Errorf("unknown event name = %q", Event(42).String())
	}
}

func TestConcurrentAddPoll(t *testing.T) {
	var c Counters
	m := NewMonitor(&c)
	m.Poll(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Add(EventBusTransAny, 1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 1; i <= 100; i++ {
			m.Poll(units.Time(i))
		}
		close(done)
	}()
	wg.Wait()
	<-done
	// After everything quiesces the total must be exact.
	if got := c.Read(EventBusTransAny); got != 40000 {
		t.Errorf("final counter = %d, want 40000", got)
	}
}

// Property: Delta inverts Add modulo the hardware width for any pair
// of accumulations.
func TestDeltaAddInverseProperty(t *testing.T) {
	f := func(start, inc uint64) bool {
		start &= counterMask
		inc &= counterMask >> 1 // at most one wrap
		var c Counters
		c.Add(EventCycles, start)
		before := Sample{Values: c.Snapshot()}
		c.Add(EventCycles, inc)
		after := Sample{Values: c.Snapshot()}
		return Delta(before, after)[EventCycles] == inc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
