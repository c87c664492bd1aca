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

// agreeWithFresh fails t unless m answers reqs bit for bit as a fresh
// model does. A fresh model is the uncached reference: its first solve
// cannot hit.
func agreeWithFresh(t *testing.T, what string, m *Model, reqs []Request) {
	t.Helper()
	wantG, wantO := New().Allocate(reqs)
	gotG, gotO := m.Allocate(append([]Request(nil), reqs...))
	if !sameAnswer(gotG, gotO, wantG, wantO) {
		t.Fatalf("%s: diverged from a fresh solve:\ngot  %+v %+v\nwant %+v %+v", what, gotG, gotO, wantG, wantO)
	}
}

// collidingPair returns two different request vectors of length n that
// map to one table slot.
func collidingPair(t *testing.T, n int) (a, b []Request) {
	t.Helper()
	var tb table
	rng := rand.New(rand.NewSource(11))
	gen := func() []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Demand: units.Rate(rng.Float64() * 30), StallFrac: rng.Float64()}
		}
		return reqs
	}
	a = gen()
	for i := 0; i < 100*tableSize; i++ {
		if b = gen(); tb.slotFor(b) == tb.slotFor(a) {
			return a, b
		}
	}
	t.Fatal("no colliding vector found")
	return nil, nil
}

// Property: the table-backed Allocate is bit-identical to an uncached
// solve for every request vector, on the miss path and the hit path,
// across randomized vectors that overflow the table 4x over.
func TestCacheBitIdenticalToUncached(t *testing.T) {
	cached := New()
	rng := rand.New(rand.NewSource(42))
	vectors := make([][]Request, 4*tableSize)
	for i := range vectors {
		vectors[i] = randReqs(rng)
	}
	// The populate pass overwrites most slots several times, reusing
	// their storage for vectors of other lengths.
	for vi, reqs := range vectors {
		agreeWithFresh(t, "populate", cached, reqs)
		if s := cached.table.slotFor(reqs); !s.holds(reqs) {
			t.Fatalf("populate: vector %d not resident right after its solve", vi)
		}
	}
	// Each slot now holds the last vector that mapped to it; replaying
	// those exercises the hit path. The hash must spread 4x the table's
	// capacity over nearly every slot (1-e^-4 of them, ~98%, for a
	// uniform hash).
	var resident [][]Request
	for _, reqs := range vectors {
		if cached.table.slotFor(reqs).holds(reqs) {
			resident = append(resident, reqs)
		}
	}
	if len(resident) < tableSize*9/10 {
		t.Fatalf("%d of %d slots resident after %d vectors: the hash clusters", len(resident), tableSize, len(vectors))
	}
	for _, reqs := range resident {
		agreeWithFresh(t, "replay", cached, reqs)
	}
}

// A hit must replay the identical grants even when the same vector is
// presented through a different backing slice, and a hot vector keeps
// its exact answer through churn that overwrites its slot.
func TestCacheHitSurvivesChurn(t *testing.T) {
	m := New()
	hot, rival := collidingPair(t, 2)
	wantG, wantO := m.Allocate(hot)
	wantG = append([]Grant(nil), wantG...)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3*tableSize; i++ {
		m.Allocate(randReqs(rng)) // churn
		if i%16 == 0 {
			m.Allocate(rival) // evict the hot vector
		}
		gotG, gotO := m.Allocate(append([]Request(nil), hot...))
		if !sameAnswer(gotG, gotO, wantG, wantO) {
			t.Fatalf("churn round %d: hot vector's answer diverged", i)
		}
	}
}

// Two vectors forced into one slot take it from each other on every
// call; each answer is still the fresh solve's, and the slot holds the
// vector asked last.
func TestTableSlotCollision(t *testing.T) {
	m := New()
	a, b := collidingPair(t, 3)
	for round := 0; round < 4; round++ {
		for _, reqs := range [][]Request{a, b} {
			agreeWithFresh(t, "collision", m, reqs)
			s := m.table.slotFor(reqs)
			if !s.holds(reqs) || s.holds(a) == s.holds(b) {
				t.Fatalf("round %d: the shared slot does not hold exactly the vector asked last", round)
			}
		}
	}
}

// A key is the whole vector: a slot holding a vector does not hold its
// prefixes or its extensions, and answers to vectors that share a
// prefix stay apart.
func TestTableLengthIsPartOfTheKey(t *testing.T) {
	full := []Request{{Demand: 11.65, StallFrac: 0.65}, {Demand: 23.6, StallFrac: 0.95}, {Demand: 0.0037, StallFrac: 0.01}}
	var s slot
	s.store(full[:2], make([]Grant, 2), Outcome{})
	if !s.holds(full[:2]) || s.holds(full[:1]) || s.holds(full) {
		t.Error("a slot holding a 2-vector matched a vector of another length")
	}
	m := New()
	for _, pass := range []string{"cold", "warm"} {
		for n := 1; n <= len(full); n++ {
			agreeWithFresh(t, pass, m, full[:n])
		}
	}
}

// -0 and +0 are different keys, in Demand and in StallFrac, even
// where the solver's answers for them agree.
func TestTableSignedZeroIsANewKey(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pos := []Request{{Demand: 0, StallFrac: 0}, {Demand: 5.2, StallFrac: 0.42}}
	for _, neg := range [][]Request{
		{{Demand: units.Rate(negZero), StallFrac: 0}, pos[1]},
		{{Demand: 0, StallFrac: negZero}, pos[1]},
	} {
		var s slot
		s.store(pos, make([]Grant, 2), Outcome{})
		if s.holds(neg) {
			t.Errorf("a slot holding %+v matched %+v", pos, neg)
		}
		m := New()
		agreeWithFresh(t, "+0", m, pos)
		agreeWithFresh(t, "-0", m, neg)
		agreeWithFresh(t, "+0 again", m, pos)
	}
}

// AllocateInto must not allocate on the hit path, nor on a miss into a
// slot that has held a vector of the same length.
func TestAllocateIntoHitPathZeroAllocs(t *testing.T) {
	m := New()
	reqs := []Request{{Demand: 10, StallFrac: 0.9}, {Demand: 2, StallFrac: 0.3}}
	grants, _ := m.AllocateInto(nil, reqs) // prime
	if avg := testing.AllocsPerRun(100, func() {
		grants, _ = m.AllocateInto(grants, reqs)
	}); avg != 0 {
		t.Errorf("hit path allocates %v times per call, want 0", avg)
	}

	a, b := collidingPair(t, 4)
	grants, _ = m.AllocateInto(grants, a)
	grants, _ = m.AllocateInto(grants, b)
	pair, i := [2][]Request{a, b}, 0
	if avg := testing.AllocsPerRun(100, func() {
		grants, _ = m.AllocateInto(grants, pair[i%2]) // the vector the slot just lost
		i++
	}); avg != 0 {
		t.Errorf("warm miss allocates %v times per call, want 0", avg)
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

// For the request sequence A, A, B, A (A and B in different slots) the
// second and last A are answered by the keyed table lookup, the only
// repeat path the model has (the machine skips repeats before they
// reach it). Both must replay the first solve bit for bit, and the
// table must end holding both vectors.
func TestFastPathMatchesLRUPath(t *testing.T) {
	m := New()
	a := []Request{{Demand: 11.65, StallFrac: 0.65}, {Demand: 23.6, StallFrac: 0.65}, {Demand: 0, StallFrac: 0.1}}
	b := []Request{{Demand: 5.2, StallFrac: 0.42}, {Demand: 23.6, StallFrac: 0.65}}
	if m.table.slotFor(a) == m.table.slotFor(b) {
		t.Fatal("A and B share a slot; pick vectors that do not")
	}
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
	if !m.table.slotFor(a).holds(a) || !m.table.slotFor(b).holds(b) {
		t.Error("the table does not hold both A and B after A, A, B, A")
	}
}
