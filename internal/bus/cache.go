package bus

import (
	"container/list"
	"encoding/binary"
	"math"
)

// DefaultCacheSize bounds the equilibrium cache. Workload demands are
// piecewise-constant across phases, so the set of distinct request
// vectors a run presents is small (co-scheduled phase combinations);
// a few hundred entries covers even the robustness sweeps while
// keeping memory flat over 9000-quantum runs.
const DefaultCacheSize = 512

// allocEntry is one memoized equilibrium: the exact grants and outcome
// computed for one request vector.
type allocEntry struct {
	key     string
	grants  []Grant
	outcome Outcome
}

// allocCache is a bounded LRU over exact request-vector keys. Keys are
// the raw IEEE-754 bits of every (Demand, StallFrac) pair, so a hit
// replays the bit-identical grants of the original solve — no
// warm-start approximation, no tolerance, no drift. Not safe for
// concurrent use; the owning Model serializes access.
type allocCache struct {
	limit   int
	entries map[string]*list.Element // key -> element holding an *allocEntry
	order   list.List                // recency order, front = most recent
}

func newAllocCache(limit int) *allocCache {
	return &allocCache{limit: limit, entries: make(map[string]*list.Element)}
}

// appendKey encodes reqs into dst as the exact float64 bit patterns,
// reusing dst's capacity. Two vectors collide only if every demand and
// stall fraction is bit-for-bit equal, in order.
func appendKey(dst []byte, reqs []Request) []byte {
	for _, r := range reqs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(r.Demand)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.StallFrac))
	}
	return dst
}

// get returns the entry for key and promotes it to most-recent, or nil.
// The []byte→string conversion in the map lookup does not allocate.
func (c *allocCache) get(key []byte) *allocEntry {
	e, ok := c.entries[string(key)]
	if !ok {
		return nil
	}
	c.order.MoveToFront(e)
	return e.Value.(*allocEntry)
}

// put inserts a new entry for key, evicting the least recently used
// entry once the cache is full. grants must be a private copy.
func (c *allocCache) put(key []byte, grants []Grant, out Outcome) {
	if c.order.Len() >= c.limit {
		delete(c.entries, c.order.Remove(c.order.Back()).(*allocEntry).key)
	}
	e := &allocEntry{key: string(key), grants: grants, outcome: out}
	c.entries[e.key] = c.order.PushFront(e)
}

// Len returns the number of cached equilibria.
func (c *allocCache) Len() int { return c.order.Len() }
