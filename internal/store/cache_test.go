package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestCacheHitMissEvict(t *testing.T) {
	c := NewCache(2, nil)
	if _, _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if body, tier, ok := c.Get("a"); !ok || tier != TierMemory || string(body) != "A" {
		t.Fatalf("get a = %q, tier %v, %v", body, tier, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	c.Put("c", []byte("C"))
	if _, _, ok := c.Get("b"); ok {
		t.Error("b survived eviction past the limit")
	}
	if _, _, ok := c.Get("a"); !ok {
		t.Error("a (recently used) was evicted")
	}
	s := c.Stats().Memory
	if s.Entries != 2 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries / 1 eviction", s)
	}
	if got := s.HitRate(); got <= 0 || got >= 1 {
		t.Errorf("hit rate = %v, want in (0, 1)", got)
	}
}

func TestCacheDuplicatePutKeepsFirst(t *testing.T) {
	c := NewCache(4, nil)
	c.Put("k", []byte("first"))
	c.Put("k", []byte("first")) // concurrent-miss double compute
	if body, _, ok := c.Get("k"); !ok || string(body) != "first" {
		t.Fatalf("get = %q, %v", body, ok)
	}
	if s := c.Stats().Memory; s.Entries != 1 {
		t.Errorf("entries = %d, want 1", s.Entries)
	}
	if s := c.Stats().Memory; s.Conflicts != 0 {
		t.Errorf("identical duplicate counted as conflict: %d", s.Conflicts)
	}
}

func TestCacheDuplicatePutCountsConflict(t *testing.T) {
	// A divergent duplicate means the byte-identity invariant broke
	// somewhere; the incumbent is kept but the event must be counted,
	// not dropped silently.
	c := NewCache(4, nil)
	c.Put("k", []byte("first"))
	c.Put("k", []byte("DIVERGENT"))
	if body, _, ok := c.Get("k"); !ok || string(body) != "first" {
		t.Fatalf("get = %q, %v", body, ok)
	}
	if s := c.Stats().Memory; s.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", s.Conflicts)
	}
}

func TestCacheConcurrent(t *testing.T) {
	// Race-detector smoke: concurrent gets and puts over a small
	// keyspace with evictions in play.
	c := NewCache(8, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if body, _, ok := c.Get(key); ok && string(body) != key {
					t.Errorf("key %s returned body %q", key, body)
					return
				}
				c.Put(key, []byte(key))
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats().Memory; s.Entries > 8 {
		t.Errorf("entries = %d exceeds limit 8", s.Entries)
	}
}

// One key through the whole hierarchy: a shared-tier hit is promoted
// into the local directory and memory, a memory eviction falls back to
// the local directory, and a divergent Put is a conflict on every tier
// holding the key.
func TestCacheHierarchy(t *testing.T) {
	shared := t.TempDir()
	body := []byte("fleet-wide body\n")
	mustOpen(t, Config{SharedDir: shared}).Put("k", body)

	c := NewCache(1, mustOpen(t, Config{Dir: t.TempDir(), SharedDir: shared}))
	for _, want := range []Tier{TierShared, TierMemory} {
		if got, tier, ok := c.Get("k"); !ok || tier != want || !bytes.Equal(got, body) {
			t.Fatalf("Get = tier %v ok %v body %q, want a %v hit", tier, ok, got, want)
		}
	}
	c.Put("other", []byte("evicts k from memory\n"))
	if got, tier, ok := c.Get("k"); !ok || tier != TierDisk || !bytes.Equal(got, body) {
		t.Fatalf("after eviction: tier %v ok %v body %q, want a disk hit", tier, ok, got)
	}

	c.Put("k", []byte("divergent body\n"))
	st := c.Stats()
	for name, ts := range map[string]TierStats{"memory": st.Memory, "disk": st.Disk, "shared": st.Shared} {
		if ts.Conflicts != 1 {
			t.Errorf("%s conflicts = %d, want 1", name, ts.Conflicts)
		}
	}
	if got, tier, _ := c.Get("k"); tier != TierMemory || !bytes.Equal(got, body) {
		t.Fatalf("incumbent replaced: tier %v body %q", tier, got)
	}
	if st.Memory.Evictions != 2 || st.Disk.Hits != 1 || st.Shared.Hits != 1 {
		t.Fatalf("stats = memory %+v disk %+v shared %+v", st.Memory, st.Disk, st.Shared)
	}
}
