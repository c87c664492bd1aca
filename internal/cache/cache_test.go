package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"busaware/internal/mem"
	"busaware/internal/units"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"xeon", XeonL2(), true},
		{"zero", Config{}, false},
		{"size-not-multiple", Config{Size: 100, LineSize: 64, Assoc: 1}, false},
		{"bad-assoc", Config{Size: 64 * 3, LineSize: 64, Assoc: 2}, false},
		{"non-pow2-sets", Config{Size: 64 * 6, LineSize: 64, Assoc: 2}, false},
		{"non-pow2-line", Config{Size: 96 * 4, LineSize: 96, Assoc: 1}, false},
		{"direct-mapped", Config{Size: 4 * units.KB, LineSize: 64, Assoc: 1}, true},
		{"fully-assoc-one-set", Config{Size: 1 * units.KB, LineSize: 64, Assoc: 16}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate(%+v) err = %v, want ok=%v", tc.cfg, err, tc.ok)
			}
		})
	}
}

func TestXeonGeometry(t *testing.T) {
	cfg := XeonL2()
	if cfg.Sets() != 512 {
		t.Errorf("Xeon L2 sets = %d, want 512", cfg.Sets())
	}
}

func TestHitAfterFill(t *testing.T) {
	c := mustNew(t, XeonL2())
	if c.Access(0x1000, false) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000, false) {
		t.Error("second access should hit")
	}
	// Same line, different offset.
	if !c.Access(0x103F, false) {
		t.Error("same-line access should hit")
	}
	// Next line misses.
	if c.Access(0x1040, false) {
		t.Error("next-line access should miss")
	}
	s := c.Stats()
	if s.Refs != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct construction of a tiny 2-way cache with 2 sets.
	cfg := Config{Size: 256, LineSize: 64, Assoc: 2} // 4 lines, 2 sets
	c := mustNew(t, cfg)
	// Addresses mapping to set 0: line addresses with even line index.
	a0 := mem.Addr(0 * 64) // set 0
	a1 := mem.Addr(2 * 64) // set 0
	a2 := mem.Addr(4 * 64) // set 0
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // a0 now MRU, a1 LRU
	c.Access(a2, false) // evicts a1
	if !c.Access(a0, false) {
		t.Error("a0 should still be resident")
	}
	if c.Access(a1, false) {
		t.Error("a1 should have been evicted (LRU)")
	}
}

func TestDirtyWriteback(t *testing.T) {
	cfg := Config{Size: 128, LineSize: 64, Assoc: 1} // 2 sets, direct mapped
	c := mustNew(t, cfg)
	c.Access(0, true)     // dirty line in set 0
	c.Access(2*64, false) // evicts it -> writeback
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", s.Writebacks)
	}
	if got := s.BusTransactions(); got != s.Misses+1 {
		t.Errorf("bus transactions = %d, want misses+1 = %d", got, s.Misses+1)
	}
}

func TestFlushCountsDirtyLines(t *testing.T) {
	c := mustNew(t, XeonL2())
	for i := 0; i < 10; i++ {
		c.Access(mem.Addr(i*64), true)
	}
	c.Flush()
	if got := c.Stats().Writebacks; got != 10 {
		t.Errorf("flush writebacks = %d, want 10", got)
	}
	if c.ResidentLines() != 0 {
		t.Errorf("resident after flush = %d", c.ResidentLines())
	}
}

func TestResidentBytes(t *testing.T) {
	cfg := XeonL2()
	c := mustNew(t, cfg)
	for i := 0; i < 100; i++ {
		c.Access(mem.Addr(i*64), false)
	}
	if got := units.Bytes(c.ResidentLines()) * cfg.LineSize; got != 100*64 {
		t.Errorf("resident = %v, want 6400B", got)
	}
}

// The paper's BBMA microbenchmark: column-wise writes over an array 2x
// the L2 -> "almost 0% cache hit rate".
func TestBBMAHitRateNearZero(t *testing.T) {
	cfg := XeonL2()
	c := mustNew(t, cfg)
	tr := mem.NewBBMA(cfg.Size, cfg.LineSize)
	s := c.Run(tr)
	if s.Refs == 0 {
		t.Fatal("BBMA produced no references")
	}
	if hr := s.HitRate(); hr > 0.01 {
		t.Errorf("BBMA hit rate = %.4f, want ~0", hr)
	}
}

// The paper's nBBMA microbenchmark: row-wise over half the L2 ->
// hit rate approaching 100% (only compulsory misses).
func TestNBBMAHitRateNearOne(t *testing.T) {
	cfg := XeonL2()
	c := mustNew(t, cfg)
	tr := mem.NewNBBMA(cfg.Size, 50)
	s := c.Run(tr)
	if hr := s.HitRate(); hr < 0.97 {
		t.Errorf("nBBMA hit rate = %.4f, want ~1", hr)
	}
}

// STREAM-like traffic (arrays >> cache) should miss on every new line:
// hit rate ~= 1 - 1/(elements per line) for sequential 8-byte refs.
func TestStreamTraceMissBehaviour(t *testing.T) {
	cfg := XeonL2()
	c := mustNew(t, cfg)
	tr := &mem.StreamTrace{Kernel: mem.StreamCopy, ArrayBytes: 4 * cfg.Size, Passes: 2, Base: 1 << 30}
	s := c.Run(tr)
	// 8 elements per 64B line; copy touches 2 arrays; expected miss rate
	// ~1/8 per reference stream.
	mr := 1 - s.HitRate()
	if mr < 0.10 || mr > 0.15 {
		t.Errorf("stream miss rate = %.4f, want ~0.125", mr)
	}
}

func TestRunIsolatesStats(t *testing.T) {
	cfg := XeonL2()
	c := mustNew(t, cfg)
	t1 := &mem.Strided{ArrayBytes: cfg.Size, Stride: 64, Count: 100}
	s1 := c.Run(t1)
	t2 := &mem.Strided{ArrayBytes: cfg.Size, Stride: 64, Count: 100}
	s2 := c.Run(t2)
	if s1.Refs != 100 || s2.Refs != 100 {
		t.Errorf("per-run refs = %d, %d; want 100 each", s1.Refs, s2.Refs)
	}
	if s2.Hits != 100 {
		t.Errorf("second identical run hits = %d, want 100 (cache warm)", s2.Hits)
	}
}

// Property: refs == hits + misses, always.
func TestStatsConservationProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		cfg := Config{Size: 8 * units.KB, LineSize: 64, Assoc: 4}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		tr := &mem.Random{ArrayBytes: 64 * units.KB, Count: int(n), WriteFrac: 0.3, Seed: seed}
		s := c.Run(tr)
		return s.Refs == s.Hits+s.Misses && s.Refs == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: resident lines never exceed capacity, and a working set
// smaller than the cache eventually stops missing.
func TestCapacityProperty(t *testing.T) {
	cfg := Config{Size: 4 * units.KB, LineSize: 64, Assoc: 4}
	c := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		c.Access(mem.Addr(rng.Int63n(1<<20)), rng.Intn(2) == 0)
		if rl := c.ResidentLines(); rl > int(cfg.Size/cfg.LineSize) {
			t.Fatalf("resident lines %d exceeds capacity %d", rl, cfg.Size/cfg.LineSize)
		}
	}
}

func TestSmallWorkingSetConverges(t *testing.T) {
	cfg := XeonL2()
	c := mustNew(t, cfg)
	// 16KB working set walked repeatedly: after warmup, no misses.
	warm := &mem.RowWise{ArrayBytes: 16 * units.KB, Elem: 8, Passes: 1}
	c.Run(warm)
	steady := &mem.RowWise{ArrayBytes: 16 * units.KB, Elem: 8, Passes: 5}
	s := c.Run(steady)
	if s.Misses != 0 {
		t.Errorf("steady-state misses = %d, want 0", s.Misses)
	}
}
