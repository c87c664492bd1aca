package bus

import (
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
// computed for one request vector. Entries form a doubly-linked list
// in recency order (head = most recently used).
type allocEntry struct {
	key        string
	grants     []Grant
	outcome    Outcome
	prev, next *allocEntry
}

// allocCache is a bounded LRU over exact request-vector keys. Keys are
// the raw IEEE-754 bits of every (Demand, StallFrac) pair, so a hit
// replays the bit-identical grants of the original solve — no
// warm-start approximation, no tolerance, no drift. Not safe for
// concurrent use; the owning Model serializes access.
type allocCache struct {
	limit      int
	entries    map[string]*allocEntry
	head, tail *allocEntry
}

func newAllocCache(limit int) *allocCache {
	return &allocCache{limit: limit, entries: make(map[string]*allocEntry)}
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
	c.moveToFront(e)
	return e
}

// put inserts and returns a new entry for key, evicting the least
// recently used entry once the cache is full. grants must be a private
// copy.
func (c *allocCache) put(key []byte, grants []Grant, out Outcome) *allocEntry {
	if len(c.entries) >= c.limit {
		c.evictOldest()
	}
	e := &allocEntry{key: string(key), grants: grants, outcome: out}
	c.entries[e.key] = e
	c.pushFront(e)
	return e
}

// Len returns the number of cached equilibria.
func (c *allocCache) Len() int { return len(c.entries) }

func (c *allocCache) pushFront(e *allocEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *allocCache) moveToFront(e *allocEntry) {
	if c.head == e {
		return
	}
	// Unlink (e is not the head, so e.prev != nil).
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	c.pushFront(e)
}

func (c *allocCache) evictOldest() {
	e := c.tail
	if e == nil {
		return
	}
	delete(c.entries, e.key)
	c.tail = e.prev
	if c.tail != nil {
		c.tail.next = nil
	} else {
		c.head = nil
	}
}
