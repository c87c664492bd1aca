package bus

import "math"

// tableBits sets the equilibrium table's size: 1<<tableBits slots of
// 72 bytes, plus each used slot's two vectors. Workload demands are
// piecewise-constant across phases, so one run presents few distinct
// request vectors (co-scheduled phase combinations). A model the
// machine reuses across runs sees many more (the figure sweep asks
// about 11,000), so the table keeps the recent ones, and a collision
// costs one re-solve.
const tableBits = 10

const tableSize = 1 << tableBits

// slot is one remembered equilibrium: the request vector it was solved
// for (empty while the slot is unused) and the exact grants and
// outcome the solve produced.
type slot struct {
	reqs    []Request
	grants  []Grant
	outcome Outcome
}

// table is a direct-mapped exact table of equilibria. The key is the
// whole request vector, compared bit for bit (math.Float64bits of
// every Demand and StallFrac, in order, so -0 and +0 are different
// keys), so a hit replays the bit-identical grants of the original
// solve: no warm-start approximation, no tolerance, no drift. A miss
// overwrites its slot and reuses the slot's storage, so once the slots
// have held vectors as long as the ones asked, neither a hit nor a miss
// allocates. Not safe for concurrent use; the owning Model serializes
// access.
type table [tableSize]slot

// slotFor returns the slot reqs maps to: a multiply–xorshift hash of
// the length and of every field's bit pattern, whose top bits pick the
// slot.
func (t *table) slotFor(reqs []Request) *slot {
	h := uint64(len(reqs))
	for _, r := range reqs {
		h = (h ^ math.Float64bits(float64(r.Demand))) * 0x9e3779b97f4a7c15
		h = (h ^ math.Float64bits(r.StallFrac)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return &t[h>>(64-tableBits)]
}

// holds reports whether s was solved for reqs: equal length and
// bitwise-equal fields.
func (s *slot) holds(reqs []Request) bool {
	if len(s.reqs) != len(reqs) {
		return false
	}
	for i, r := range reqs {
		if math.Float64bits(float64(s.reqs[i].Demand)) != math.Float64bits(float64(r.Demand)) ||
			math.Float64bits(s.reqs[i].StallFrac) != math.Float64bits(r.StallFrac) {
			return false
		}
	}
	return true
}

// store makes s the equilibrium of reqs, copying both vectors into the
// slot's own storage.
func (s *slot) store(reqs []Request, grants []Grant, out Outcome) {
	s.reqs = append(s.reqs[:0], reqs...)
	s.grants = append(s.grants[:0], grants...)
	s.outcome = out
}
