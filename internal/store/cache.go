package store

import (
	"bytes"
	"container/list"
	"sync"
)

// Cache is the whole result-cache hierarchy: a bounded in-process LRU
// of bodies (tier 1) in front of an optional persistent Store (tiers 2
// and 3). It alone decides the tier order, promotion and conflict
// accounting. Keys are exact, so a memory hit replays the byte-identical
// body of the key's first computation: no partial match and no
// staleness, because the simulator is a pure function of the key.
// Tier 1 has its own mutex, so a memory hit never waits on tier 2's
// index or on disk. Safe for concurrent use.
type Cache struct {
	st    *Store
	limit int

	mu    sync.Mutex
	index map[string]*list.Element // key -> element holding a *memEntry
	order list.List                // recency order, front = most recent
	t1    tierCounters
}

// memEntry is one resident tier-1 body.
type memEntry struct {
	key  string
	body []byte
}

// NewCache builds a hierarchy that holds at most limit bodies (at
// least one) in memory, in front of st. A nil st keeps it memory only.
func NewCache(limit int, st *Store) *Cache {
	limit = max(limit, 1)
	return &Cache{st: st, limit: limit, index: make(map[string]*list.Element, limit)}
}

// Get returns the body for key from the first tier holding it: memory,
// the local directory, then the shared one. A persistent hit is
// promoted into memory (and a shared hit into the local directory), so
// the key's next lookup is a memory hit. The returned slice is shared
// and must not be mutated; callers only ever write it to the wire.
func (c *Cache) Get(key string) ([]byte, Tier, bool) {
	if body, ok := c.memory(key); ok {
		return body, TierMemory, true
	}
	body, tier, ok := c.st.Get(key)
	if ok {
		c.remember(key, body)
	}
	return body, tier, ok
}

// Put writes body through every tier. Concurrent misses on one key may
// both put; the bodies are byte-identical by construction, so each tier
// keeps its first writer. That assumption is checked, not trusted: a
// divergent duplicate is counted as a conflict on each tier holding the
// key, and the incumbent is kept.
func (c *Cache) Put(key string, body []byte) {
	c.remember(key, body)
	c.st.Put(key, body)
}

// memory looks key up in tier 1, marking it most recently used.
func (c *Cache) memory(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.index[key]
	if !ok {
		c.t1.misses.Add(1)
		return nil, false
	}
	c.t1.hits.Add(1)
	c.order.MoveToFront(e)
	return e.Value.(*memEntry).body, true
}

// remember puts body into tier 1 as most recently used, evicting the
// least recently used body once full. An incumbent is kept.
func (c *Cache) remember(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.index[key]; ok {
		if !bytes.Equal(e.Value.(*memEntry).body, body) {
			c.t1.conflicts.Add(1)
		}
		c.order.MoveToFront(e)
		return
	}
	if c.order.Len() >= c.limit {
		delete(c.index, c.order.Remove(c.order.Back()).(*memEntry).key)
		c.t1.evictions.Add(1)
	}
	c.index[key] = c.order.PushFront(&memEntry{key: key, body: body})
	c.t1.puts.Add(1)
}

// Stats snapshots every tier.
func (c *Cache) Stats() Stats {
	st := c.st.Stats()
	st.Memory = c.t1.snapshot()
	c.mu.Lock()
	st.Memory.Entries = len(c.index)
	c.mu.Unlock()
	return st
}
