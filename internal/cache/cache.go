// Package cache implements a set-associative write-allocate LRU cache
// simulator modelled on the Xeon's 256KB 8-way L2 with 64-byte lines.
//
// The simulator derives the paper's microbenchmark properties (BBMA ~0%
// hit rate, nBBMA ~100%) from the access patterns instead of
// hard-coding them; see the tests and cmd/figures -fig hit. The machine
// model does not run it: a profile's MigrationPenalty, repaid at
// workload.RefillDemand, prices a migration.
package cache

import (
	"fmt"

	"busaware/internal/mem"
	"busaware/internal/units"
)

// Config describes a cache geometry.
type Config struct {
	Size     units.Bytes // total capacity
	LineSize units.Bytes // bytes per line
	Assoc    int         // ways per set
}

// XeonL2 is the paper machine's per-processor L2: 256KB, 8-way,
// 64-byte lines.
func XeonL2() Config {
	return Config{Size: 256 * units.KB, LineSize: 64, Assoc: 8}
}

// Validate checks the geometry for internal consistency.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.Size%c.LineSize != 0 {
		return fmt.Errorf("cache: size %v not a multiple of line size %v", c.Size, c.LineSize)
	}
	lines := int(c.Size / c.LineSize)
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %v not a power of two", c.LineSize)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return int(c.Size/c.LineSize) / c.Assoc }

// line is one cache line's bookkeeping.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set logical clock value; larger is more recent.
	lru uint64
}

// Stats accumulates reference outcomes.
type Stats struct {
	Refs       uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// HitRate returns hits/refs, or 0 with no references.
func (s Stats) HitRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Refs)
}

// BusTransactions returns the number of bus transactions the recorded
// activity generated: one line fill per miss plus one writeback per
// dirty eviction.
func (s Stats) BusTransactions() uint64 { return s.Misses + s.Writebacks }

// Cache is a set-associative LRU cache simulator. It is not safe for
// concurrent use.
type Cache struct {
	sets     [][]line
	clock    uint64
	stats    Stats
	setShift uint
	setMask  uint64
}

// New builds a cache from cfg. It returns an error if the geometry is
// invalid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	sets := make([][]line, nsets)
	backing := make([]line, nsets*cfg.Assoc)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc:cfg.Assoc], backing[cfg.Assoc:]
	}
	shift := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		shift++
	}
	return &Cache{
		sets:     sets,
		setShift: shift,
		setMask:  uint64(nsets - 1),
	}, nil
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Flush invalidates every line, counting writebacks for dirty ones.
// This models losing cache state, e.g. on thread migration.
func (c *Cache) Flush() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			l := &c.sets[si][wi]
			if l.valid && l.dirty {
				c.stats.Writebacks++
			}
			*l = line{}
		}
	}
}

// Access performs one reference and reports whether it hit.
func (c *Cache) Access(addr mem.Addr, write bool) bool {
	c.stats.Refs++
	c.clock++
	lineAddr := uint64(addr) >> c.setShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> 0 // full line address as tag; sets overlap is fine

	// Hit path.
	for wi := range set {
		l := &set[wi]
		if l.valid && l.tag == tag {
			l.lru = c.clock
			if write {
				l.dirty = true
			}
			c.stats.Hits++
			return true
		}
	}

	// Miss: fill, evicting the LRU way.
	c.stats.Misses++
	victim := &set[0]
	for wi := 1; wi < len(set); wi++ {
		l := &set[wi]
		if !l.valid {
			victim = l
			break
		}
		if !victim.valid {
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	if victim.valid && victim.dirty {
		c.stats.Writebacks++
	}
	*victim = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return false
}

// ResidentLines returns the number of valid lines, i.e. the resident
// working set in lines.
func (c *Cache) ResidentLines() int {
	n := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid {
				n++
			}
		}
	}
	return n
}

// Run plays an entire trace through the cache and returns the stats
// delta for just that trace.
func (c *Cache) Run(t mem.Trace) Stats {
	before := c.stats
	for {
		addr, write, ok := t.Next()
		if !ok {
			break
		}
		c.Access(addr, write)
	}
	after := c.stats
	return Stats{
		Refs:       after.Refs - before.Refs,
		Hits:       after.Hits - before.Hits,
		Misses:     after.Misses - before.Misses,
		Writebacks: after.Writebacks - before.Writebacks,
	}
}
