package bus

import (
	"math"
	"math/rand"
	"testing"

	"busaware/internal/units"
)

func randReqs(rng *rand.Rand) []Request {
	n := rng.Intn(8) + 1
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Demand:    units.Rate(rng.Float64() * 30),
			StallFrac: rng.Float64(),
		}
	}
	return reqs
}

// Property: the memoized Allocate is bit-identical to an uncached
// solve for every request vector, on both the miss path (first call)
// and the hit path (replay), across randomized vectors that overflow
// the LRU bound many times over.
func TestCacheBitIdenticalToUncached(t *testing.T) {
	cached := New()
	rng := rand.New(rand.NewSource(42))

	vectors := make([][]Request, 4*DefaultCacheSize)
	for i := range vectors {
		vectors[i] = randReqs(rng)
	}

	check := func(pass string, vecs [][]Request) {
		for vi, reqs := range vecs {
			// A fresh model per vector is the uncached reference: its
			// first solve cannot hit.
			fresh := New()
			wantG, wantO := fresh.Allocate(reqs)
			gotG, gotO := cached.Allocate(reqs)
			if gotO != wantO {
				t.Fatalf("%s: vector %d outcome diverged:\ngot  %+v\nwant %+v", pass, vi, gotO, wantO)
			}
			for i := range wantG {
				if gotG[i] != wantG[i] {
					t.Fatalf("%s: vector %d grant %d diverged: got %+v want %+v", pass, vi, i, gotG[i], wantG[i])
				}
			}
		}
	}
	// The full sequential pass overflows the LRU 4x over, so by the
	// time any vector would repeat it has been evicted — every call is
	// a miss-and-re-solve after eviction. The tail pass then replays
	// the most recently inserted vectors, which are still resident, so
	// it exercises the hit path against the same fresh-model oracle.
	check("populate", vectors)
	// The full cache holds exactly the newest DefaultCacheSize vectors:
	// the first pass evicted every older one.
	oldest := string(appendKey(nil, vectors[len(vectors)-DefaultCacheSize]))
	back := func() string { return cached.cache.order.Back().Value.(*allocEntry).key }
	if size := cached.cache.Len(); size != DefaultCacheSize || back() != oldest {
		t.Fatalf("after populate: %d entries, want the newest %d vectors", size, DefaultCacheSize)
	}
	check("replay-tail", vectors[len(vectors)-DefaultCacheSize/2:])
	// A replay that missed would have inserted a second entry for its
	// key and evicted the oldest: every one must have hit.
	if size := cached.cache.Len(); size != DefaultCacheSize || back() != oldest {
		t.Errorf("tail replay missed a resident vector: %d entries, oldest evicted %v", size, back() != oldest)
	}
}

// A hit must replay the identical grants even when the same vector is
// presented through a different backing slice, and repeated hits keep
// promoting the entry so a hot vector survives interleaved churn.
func TestCacheHitSurvivesChurn(t *testing.T) {
	m := New()
	hot := []Request{{Demand: 12, StallFrac: 0.8}, {Demand: 3, StallFrac: 0.4}}
	wantG, wantO := m.Allocate(hot)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3*DefaultCacheSize; i++ {
		m.Allocate(randReqs(rng)) // churn
		hotCopy := append([]Request(nil), hot...)
		gotG, gotO := m.Allocate(hotCopy) // keep the hot entry fresh
		if gotO != wantO {
			t.Fatalf("churn round %d: outcome diverged", i)
		}
		for k := range wantG {
			if gotG[k] != wantG[k] {
				t.Fatalf("churn round %d: grant %d diverged", i, k)
			}
		}
	}
	if size := m.cache.Len(); size > DefaultCacheSize {
		t.Errorf("cache grew past its bound: %d", size)
	}
}

// AllocateInto must not allocate on the hit path.
func TestAllocateIntoHitPathZeroAllocs(t *testing.T) {
	m := New()
	reqs := []Request{{Demand: 10, StallFrac: 0.9}, {Demand: 2, StallFrac: 0.3}}
	grants, _ := m.AllocateInto(nil, reqs) // prime
	avg := testing.AllocsPerRun(100, func() {
		grants, _ = m.AllocateInto(grants, reqs)
	})
	if avg != 0 {
		t.Errorf("hit path allocates %v times per call, want 0", avg)
	}
}

// sameAnswer reports whether two allocations agree bit for bit.
func sameAnswer(g1 []Grant, o1 Outcome, g2 []Grant, o2 Outcome) bool {
	bits := math.Float64bits
	if len(g1) != len(g2) || bits(float64(o1.Served)) != bits(float64(o2.Served)) ||
		bits(o1.Utilization) != bits(o2.Utilization) || bits(o1.Stretch) != bits(o2.Stretch) {
		return false
	}
	for i := range g1 {
		if bits(g1[i].Speed) != bits(g2[i].Speed) || bits(float64(g1[i].Rate)) != bits(float64(g2[i].Rate)) {
			return false
		}
	}
	return true
}

// For the request sequence A, A, B, A the second and last A are
// answered by the keyed LRU lookup, the only repeat path the model
// has (the machine skips repeats before they reach it). Both must
// replay the first solve bit for bit, hit (a miss would insert a
// second entry), and leave the LRU order A most recent, then B.
func TestFastPathMatchesLRUPath(t *testing.T) {
	m := New()
	a := []Request{{Demand: 11.65, StallFrac: 0.65}, {Demand: 23.6, StallFrac: 0.65}, {Demand: 0, StallFrac: 0.1}}
	b := []Request{{Demand: 5.2, StallFrac: 0.42}, {Demand: 23.6, StallFrac: 0.65}}
	type answer struct {
		grants []Grant
		out    Outcome
	}
	var got []answer
	for _, reqs := range [][]Request{a, a, b, a} {
		// A fresh copy each call: the key is built from values, not
		// backing arrays.
		g, out := m.Allocate(append([]Request(nil), reqs...))
		got = append(got, answer{g, out})
	}
	for _, i := range []int{1, 3} {
		if !sameAnswer(got[i].grants, got[i].out, got[0].grants, got[0].out) {
			t.Errorf("call %d diverged from the first solve of A:\n%+v %+v\n%+v %+v",
				i, got[i].grants, got[i].out, got[0].grants, got[0].out)
		}
	}
	if size := m.cache.Len(); size != 2 {
		t.Errorf("%d cache entries after A, A, B, A; want 2", size)
	}
	front, back := m.cache.order.Front().Value.(*allocEntry), m.cache.order.Back().Value.(*allocEntry)
	if front.key != string(appendKey(nil, a)) || back.key != string(appendKey(nil, b)) {
		t.Error("LRU order after A, A, B, A is not A then B")
	}
}
