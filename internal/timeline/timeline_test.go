package timeline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sample returns a deterministic sample for quantum i. Float inputs
// are dyadic rationals (exact in binary floating point), so window
// sums — and therefore Merge — are exact, letting the associativity
// test assert bit-equality rather than approximate closeness.
func sample(i int) Sample {
	return Sample{
		StartUsec:   int64(i) * 200_000,
		DurUsec:     200_000,
		Utilization: float64(i%8) * 0.125,
		Served:      float64(i%16) * 0.25,
		Stretch:     1 + float64(i%4)*0.5,
		Placed:      i % 5,
		Runnable:    i%3 + 1,
		Admitted:    i % 3,
		Faults:      int64(i % 2),
	}
}

func TestCollectorWindowing(t *testing.T) {
	c := MustNew(Config{QuantaPerWindow: 4, Capacity: 8})
	for i := 0; i < 10; i++ {
		c.RecordQuanta(sample(i), 1)
	}
	if got := c.Sealed(); got != 2 {
		t.Fatalf("sealed = %d, want 2 (10 quanta, window of 4)", got)
	}
	c.Seal() // flush the 2-quantum partial
	ws := c.Windows()
	if len(ws) != 3 {
		t.Fatalf("retained %d windows, want 3", len(ws))
	}
	if ws[0].Quanta != 4 || ws[1].Quanta != 4 || ws[2].Quanta != 2 {
		t.Fatalf("window quanta = %d,%d,%d, want 4,4,2", ws[0].Quanta, ws[1].Quanta, ws[2].Quanta)
	}
	for i, w := range ws {
		if w.Seq != int64(i) {
			t.Errorf("window %d has seq %d", i, w.Seq)
		}
	}
	// Time bounds cover the recorded quanta contiguously.
	if ws[0].StartUsec != 0 || ws[0].EndUsec != 800_000 {
		t.Errorf("window 0 spans [%d,%d], want [0,800000]", ws[0].StartUsec, ws[0].EndUsec)
	}
	if ws[2].StartUsec != 1_600_000 || ws[2].EndUsec != 2_000_000 {
		t.Errorf("window 2 spans [%d,%d], want [1600000,2000000]", ws[2].StartUsec, ws[2].EndUsec)
	}
	// An empty collector seals nothing.
	before := c.Sealed()
	c.Seal()
	if c.Sealed() != before {
		t.Errorf("Seal with no open window sealed one anyway")
	}
}

func TestCollectorFieldAccumulation(t *testing.T) {
	c := MustNew(Config{QuantaPerWindow: 4, Capacity: 4})
	// Quantum roster: two saturated, one idle, deferred jobs on two.
	c.RecordQuanta(Sample{DurUsec: 10, Utilization: 0.95, Served: 2, Stretch: 4, Placed: 4, Runnable: 3, Admitted: 2}, 1)
	c.RecordQuanta(Sample{StartUsec: 10, DurUsec: 10, Utilization: SaturationThreshold, Served: 1, Stretch: 2, Placed: 2, Runnable: 2, Admitted: 1, Faults: 3}, 1)
	c.RecordQuanta(Sample{StartUsec: 20, DurUsec: 10, Utilization: 0.875, Served: 0.5, Stretch: 1, Placed: 1, Runnable: 1, Admitted: 1}, 1)
	c.RecordQuanta(Sample{StartUsec: 30, DurUsec: 10}, 1)
	w := c.Windows()[0]
	if w.Saturated != 2 {
		t.Errorf("saturated = %d, want 2 (threshold %v inclusive)", w.Saturated, SaturationThreshold)
	}
	if w.Idle != 1 {
		t.Errorf("idle = %d, want 1", w.Idle)
	}
	if w.Admitted != 4 || w.Deferred != 2 {
		t.Errorf("admitted/deferred = %d/%d, want 4/2", w.Admitted, w.Deferred)
	}
	if w.UtilMax != 0.95 || w.StretchMax != 4 {
		t.Errorf("maxes = %v/%v, want 0.95/4", w.UtilMax, w.StretchMax)
	}
	if got := w.UtilMean(); math.Abs(got-0.68125) > 1e-12 {
		t.Errorf("util mean = %v, want 0.68125", got)
	}
	if w.Faults != 3 {
		t.Errorf("faults = %d, want 3", w.Faults)
	}
	if w.DeferredFrac() != float64(2)/6 {
		t.Errorf("deferred frac = %v, want 1/3", w.DeferredFrac())
	}
}

// TestRingWraparound drives the collector far past capacity and checks
// that retention, eviction accounting, and the running summary all
// stay consistent — the bounded-memory contract at millions of quanta.
func TestRingWraparound(t *testing.T) {
	const (
		perWindow = 8
		capacity  = 16
		quanta    = 8 * perWindow * capacity // 8 full ring turnovers
	)
	c := MustNew(Config{QuantaPerWindow: perWindow, Capacity: capacity})
	for i := 0; i < quanta; i++ {
		c.RecordQuanta(sample(i), 1)
	}
	wantSealed := int64(quanta / perWindow)
	if got := c.Sealed(); got != wantSealed {
		t.Fatalf("sealed = %d, want %d", got, wantSealed)
	}
	ws := c.Windows()
	if len(ws) != capacity {
		t.Fatalf("retained %d windows, want %d", len(ws), capacity)
	}
	if got := c.Evicted(); got != wantSealed-capacity {
		t.Fatalf("evicted = %d, want %d", got, wantSealed-capacity)
	}
	// The survivors are exactly the newest windows, in order.
	for i, w := range ws {
		if want := wantSealed - int64(capacity) + int64(i); w.Seq != want {
			t.Fatalf("window %d has seq %d, want %d", i, w.Seq, want)
		}
	}
	// Since() slices the retained tail.
	tail := c.Since(ws[capacity-3].Seq)
	if len(tail) != 3 {
		t.Fatalf("Since returned %d windows, want 3", len(tail))
	}
	// The summary covers every quantum ever recorded, evicted included.
	sum := c.Summary()
	if sum.Quanta != int64(quanta) {
		t.Fatalf("summary quanta = %d, want %d", sum.Quanta, quanta)
	}
	var wantUtil float64
	var wantFaults int64
	for i := 0; i < quanta; i++ {
		s := sample(i)
		wantUtil += s.Utilization
		wantFaults += s.Faults
	}
	if sum.UtilSum != wantUtil {
		t.Errorf("summary util sum = %v, want %v", sum.UtilSum, wantUtil)
	}
	if sum.Faults != wantFaults {
		t.Errorf("summary faults = %d, want %d", sum.Faults, wantFaults)
	}
	// Summary == merge(evicted..., retained...): recomputable from parts.
	if got := Merge(c.evictedSnapshot(), mergeAll(ws)); !reflect.DeepEqual(got, sum) {
		t.Errorf("summary != evicted+retained:\n got %+v\nwant %+v", got, sum)
	}
}

// mergeAll folds windows into one, left to right from the zero Window.
func mergeAll(ws []Window) Window {
	var out Window
	for _, w := range ws {
		out = Merge(out, w)
	}
	return out
}

// evictedSnapshot exposes the evicted-windows fold for the wraparound
// test's consistency check.
func (c *Collector) evictedSnapshot() Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// TestMergeAssociative pins the property the gateway's cross-backend
// aggregation depends on: folding windows in any order — any
// parenthesization, any permutation — produces the identical result.
// Inputs use dyadic fractions so float sums are exact and equality can
// be bitwise.
func TestMergeAssociative(t *testing.T) {
	mk := func(seed int) Window {
		c := MustNew(Config{QuantaPerWindow: 32, Capacity: 1})
		for i := 0; i < 32; i++ {
			c.RecordQuanta(sample(seed*32+i), 1)
		}
		return c.Windows()[0]
	}
	a, b, d := mk(0), mk(1), mk(2)

	left := Merge(Merge(a, b), d)
	right := Merge(a, Merge(b, d))
	if !reflect.DeepEqual(left, right) {
		t.Fatalf("merge not associative:\n(a+b)+d = %+v\na+(b+d) = %+v", left, right)
	}
	if ab, ba := Merge(a, b), Merge(b, a); !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge not commutative:\na+b = %+v\nb+a = %+v", ab, ba)
	}
	// Identity element.
	if got := Merge(a, Window{}); !reflect.DeepEqual(got, a) {
		t.Fatalf("zero window is not a right identity: %+v", got)
	}
	if got := Merge(Window{}, a); !reflect.DeepEqual(got, a) {
		t.Fatalf("zero window is not a left identity: %+v", got)
	}

	// Shuffle a larger pool: every fold order agrees. This is the
	// gateway scenario — N backends' windows arriving in arbitrary
	// completion order.
	pool := make([]Window, 12)
	for i := range pool {
		pool[i] = mk(i)
	}
	want := mergeAll(pool)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]Window(nil), pool...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := mergeAll(shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shuffled fold diverged:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

func TestOnSealFiresMidRunAndOnFlush(t *testing.T) {
	var sealed []Window
	c := MustNew(Config{QuantaPerWindow: 4, Capacity: 4, OnSeal: func(w Window) { sealed = append(sealed, w) }})
	for i := 0; i < 6; i++ {
		c.RecordQuanta(sample(i), 1)
	}
	if len(sealed) != 1 {
		t.Fatalf("OnSeal fired %d times mid-run, want 1", len(sealed))
	}
	c.Seal()
	if len(sealed) != 2 {
		t.Fatalf("OnSeal fired %d times after flush, want 2", len(sealed))
	}
	if sealed[1].Quanta != 2 {
		t.Errorf("flushed window covers %d quanta, want 2", sealed[1].Quanta)
	}
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{}, true},
		{"negative-window", Config{QuantaPerWindow: -1}, false},
		{"negative-capacity", Config{Capacity: -1}, false},
		{"explicit", Config{QuantaPerWindow: 1, Capacity: 1}, true},
	} {
		_, err := New(tc.cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
	c := MustNew(Config{})
	if c.QuantaPerWindow() != DefaultQuantaPerWindow {
		t.Errorf("defaulted quanta/window = %d", c.QuantaPerWindow())
	}
}
