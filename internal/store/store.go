// Package store is the result-cache hierarchy: rendered response
// bodies keyed by the server's canonical request key, in three tiers.
//
//	tier 1 — a bounded in-process LRU that answers the hot set
//	tier 2 — a local directory, two-level sharded over the hashed key,
//	         size-bounded with LRU eviction by access order
//	tier 3 — an optional shared directory all backends read and write,
//	         one global result set for the whole fleet
//
// A Store is the persistent tiers 2 and 3, content-addressed on disk.
// A Cache puts tier 1 in front of a Store and owns the hierarchy: its
// Get walks the tiers in order and promotes, and its Put writes through
// every tier.
//
// Sharing whole bodies is sound because the simulator is a pure
// function of the canonical key (byte-identity enforced end to end by
// internal/digest) — the same durable-result-cache assumption offline
// schedule reuse makes. What disk adds is failure modes memory does
// not have: truncated files after a crash, torn or bit-rotted bytes,
// another process writing the same key. The store's contract is that
// none of those can surface as a wrong body:
//
//   - Writes are crash-safe: the entry is built in a temp file and
//     published with os.Rename, so readers see either nothing or the
//     whole entry. Leftover temp files are swept at Open.
//   - Every read is verified: the entry embeds its key and the digest
//     of its body, and a mismatch — truncation, corruption, a hash
//     collision — is a miss (and the corrupt file is removed), never a
//     served body.
//   - A Put over an existing entry cross-checks digests instead of
//     assuming byte-identity; a divergent body is a counted conflict
//     and the incumbent is kept, as in tier 1.
//
// All methods are safe for concurrent use. Store's are no-ops on a nil
// *Store, so a Cache threads an optional store without branching.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"busaware/internal/digest"
)

// Tier identifies which layer of the hierarchy answered a Get.
type Tier int

const (
	// TierNone means no tier had the key.
	TierNone Tier = iota
	// TierMemory is the in-process LRU (tier 1). Only a Cache has it.
	TierMemory
	// TierDisk is the local sharded directory (tier 2).
	TierDisk
	// TierShared is the fleet-wide shared directory (tier 3).
	TierShared
)

// String names a tier the way the metrics label it.
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "1"
	case TierDisk:
		return "2"
	case TierShared:
		return "3"
	}
	return "none"
}

// Config sizes and places the store.
type Config struct {
	// Dir is the tier-2 root ("" disables tier 2).
	Dir string
	// SharedDir is the tier-3 root ("" disables tier 3). Several
	// backends may point at the same directory; writes are atomic, so
	// concurrent populators are safe.
	SharedDir string
	// MaxBytes bounds tier 2's total on-disk bytes (entry files,
	// headers included; 0 = unbounded). Over the bound, entries are
	// evicted least-recently-accessed first.
	MaxBytes int64
}

// TierStats is one tier's counters.
type TierStats struct {
	// Hits and Misses count Get lookups that reached this tier.
	Hits, Misses uint64
	// VerifyFails counts entries rejected on read — truncated,
	// corrupted, or keyed wrong — and removed. Each is reported as a
	// miss too; a verify failure must never be worse than absence.
	VerifyFails uint64
	// Puts counts bodies written; Conflicts counts Puts whose key was
	// already present with different bytes (incumbent kept).
	Puts, Conflicts uint64
	// Evictions counts bound-driven LRU removals (tiers 1 and 2).
	Evictions uint64
	// Bytes (tier 2 only) and Entries (tiers 1 and 2) are the resident
	// footprint; a shared directory has no single owner to account it.
	Bytes   int64
	Entries int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (t TierStats) HitRate() float64 {
	if total := t.Hits + t.Misses; total > 0 {
		return float64(t.Hits) / float64(total)
	}
	return 0
}

// Stats is a point-in-time snapshot of the tiers. A Store fills Disk
// and Shared; a Cache adds Memory.
type Stats struct {
	Memory, Disk, Shared TierStats
}

// tierCounters is the lock-free half of a tier's stats.
type tierCounters struct {
	hits, misses, verifyFails, puts, conflicts, evictions atomic.Uint64
}

func (c *tierCounters) snapshot() TierStats {
	return TierStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		VerifyFails: c.verifyFails.Load(),
		Puts:        c.puts.Load(),
		Conflicts:   c.conflicts.Load(),
		Evictions:   c.evictions.Load(),
	}
}

// entry is the tier-2 index record for one resident file. The index
// keys it by the file's binary digest (hashKey), not by a pointer or
// the 64-byte hex name: a resident entry costs a map slot and no
// separate allocation.
type entry struct {
	size  int64
	atime int64 // logical access clock; seeded from mtime at Open
}

// Store is a tiered persistent result store. Open one per process;
// the zero of *Store (nil) is a disabled store on which every method
// is a cheap no-op.
type Store struct {
	dir      string
	shared   string
	maxBytes int64

	// mu guards the tier-2 index (bytes, clock, entries); file I/O
	// happens outside it so a slow disk never serializes lookups.
	mu      sync.Mutex
	index   map[[sha256.Size]byte]entry
	bytes   int64
	clock   int64
	evictMu sync.Mutex // serializes eviction sweeps

	t2, t3 tierCounters
}

// Open builds a Store over cfg, creating the roots, sweeping temp
// files a crashed writer left behind, and indexing tier 2's resident
// entries (sizes and access times) for the eviction bound. At least
// one of Dir and SharedDir must be set.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" && cfg.SharedDir == "" {
		return nil, fmt.Errorf("store: no directory configured")
	}
	s := &Store{
		dir:      cfg.Dir,
		shared:   cfg.SharedDir,
		maxBytes: cfg.MaxBytes,
		index:    make(map[[sha256.Size]byte]entry),
	}
	for _, root := range []string{s.dir, s.shared} {
		if root == "" {
			continue
		}
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		sweepTemp(root)
	}
	if s.dir != "" {
		if err := s.loadIndex(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// tmpPrefix marks in-progress writes; anything carrying it at Open is
// a crash leftover and is removed.
const tmpPrefix = "tmp-"

// sweepTemp removes interrupted writes under root (best-effort — a
// sweep that races another process's live write just fails to remove
// a file that process will rename or re-create).
func sweepTemp(root string) {
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.HasPrefix(d.Name(), tmpPrefix) {
			os.Remove(path)
		}
		return nil
	})
}

// loadIndex walks tier 2 and rebuilds the eviction index. Access
// order across restarts is seeded from file mtimes (bumped on every
// hit), so a restart resumes the LRU where the last process left it.
func (s *Store) loadIndex() error {
	type seed struct {
		hash [sha256.Size]byte
		size int64
		mt   time.Time
	}
	var seeds []seed
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		hash, ok := parseName(d.Name())
		if !ok {
			return nil // a temp leftover or a file the store did not write
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		seeds = append(seeds, seed{hash: hash, size: info.Size(), mt: info.ModTime()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: index %s: %w", s.dir, err)
	}
	// Oldest mtime gets the lowest logical atime; ties break on the
	// hash so the order is deterministic.
	sort.Slice(seeds, func(i, j int) bool {
		a, b := &seeds[i], &seeds[j]
		if !a.mt.Equal(b.mt) {
			return a.mt.Before(b.mt)
		}
		return bytes.Compare(a.hash[:], b.hash[:]) < 0
	})
	for _, sd := range seeds {
		s.clock++
		s.index[sd.hash] = entry{size: sd.size, atime: s.clock}
		s.bytes += sd.size
	}
	return nil
}

// hashKey maps a canonical key to its content address: the SHA-256 of
// the key. Collisions are cryptographically negligible, and the
// embedded key is re-checked on read regardless, so even a collision
// is a verify-fail miss, never a wrong body.
func hashKey(key string) [sha256.Size]byte {
	return sha256.Sum256([]byte(key))
}

// pathFor is the two-level sharded location of hash under root, named
// by its lowercase hex: root/ab/cd/abcd... — 65536 leaf directories, so
// a million entries average ~15 files per directory instead of one
// unlistable flat dir. Hex order is byte order, so ordering entries by
// digest or by file name is the same.
func pathFor(root string, hash [sha256.Size]byte) string {
	name := hex.EncodeToString(hash[:])
	return filepath.Join(root, name[:2], name[2:4], name)
}

// parseName inverts pathFor's file naming: ok is false for any name
// that is not the lowercase hex of a digest.
func parseName(name string) (hash [sha256.Size]byte, ok bool) {
	if len(name) != hex.EncodedLen(sha256.Size) {
		return hash, false
	}
	if _, err := hex.Decode(hash[:], []byte(name)); err != nil {
		return hash, false
	}
	return hash, hex.EncodeToString(hash[:]) == name
}

// entry file layout: a three-line header then the raw body bytes.
// The key line lets a read prove the file answers the question asked
// (hash collisions, tooling mistakes); the digest line is the body's
// integrity check, shared with the wire format (internal/digest).
const magic = "busaware-store 1"

// encode renders the entry file bytes for (key, body).
func encode(key string, body []byte) []byte {
	out := make([]byte, 0, len(magic)+len(key)+len(body)+32)
	out = append(out, magic...)
	out = append(out, '\n')
	out = append(out, key...)
	out = append(out, '\n')
	out = append(out, digest.Sum(body)...)
	out = append(out, '\n')
	return append(out, body...)
}

// decode parses and verifies an entry file. Any deviation — wrong
// magic, wrong key, digest mismatch (which covers truncation) — is
// reported as not-ok.
func decode(data []byte, key string) ([]byte, bool) {
	rest, ok := cutLine(data, magic)
	if !ok {
		return nil, false
	}
	rest, ok = cutLine(rest, key)
	if !ok {
		return nil, false
	}
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return nil, false
	}
	d, body := string(rest[:nl]), rest[nl+1:]
	if d != digest.Sum(body) {
		return nil, false
	}
	return body, true
}

// cutLine strips one expected header line.
func cutLine(data []byte, want string) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || string(data[:nl]) != want {
		return nil, false
	}
	return data[nl+1:], true
}

// Get returns the stored body for key, trying tier 2 then tier 3. A
// tier-3 hit is promoted into tier 2 so the next lookup is local. The
// returned slice is freshly read and owned by the caller.
func (s *Store) Get(key string) ([]byte, Tier, bool) {
	if s == nil {
		return nil, TierNone, false
	}
	hash := hashKey(key)
	if s.dir != "" {
		if body, ok := s.readTier(&s.t2, s.dir, hash, key); ok {
			s.touch(hash)
			return body, TierDisk, true
		}
	}
	if s.shared != "" {
		if body, ok := s.readTier(&s.t3, s.shared, hash, key); ok {
			if s.dir != "" {
				// Promote: the next restart (or eviction refill) finds
				// it locally without touching the shared set.
				s.putTier(&s.t2, s.dir, hash, key, body, true)
			}
			return body, TierShared, true
		}
	}
	return nil, TierNone, false
}

// readTier reads and verifies one tier's entry for hash, accounting
// the outcome. A corrupt entry is removed so it cannot fail every
// future lookup; absence and corruption both return not-ok.
func (s *Store) readTier(c *tierCounters, root string, hash [sha256.Size]byte, key string) ([]byte, bool) {
	data, err := os.ReadFile(pathFor(root, hash))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	body, ok := decode(data, key)
	if !ok {
		c.verifyFails.Add(1)
		c.misses.Add(1)
		os.Remove(pathFor(root, hash))
		if root == s.dir {
			s.drop(hash)
		}
		return nil, false
	}
	c.hits.Add(1)
	return body, true
}

// Put stores body under key in every configured persistent tier.
// Writes are atomic (temp + rename); an existing divergent entry is a
// counted conflict and is kept, matching tier 1's first-writer-wins.
func (s *Store) Put(key string, body []byte) {
	if s == nil {
		return
	}
	hash := hashKey(key)
	if s.dir != "" {
		s.putTier(&s.t2, s.dir, hash, key, body, false)
	}
	if s.shared != "" {
		s.putTier(&s.t3, s.shared, hash, key, body, false)
	}
}

// putTier writes one tier's entry. promotion marks tier-3→tier-2
// copies, which skip conflict accounting (the body was just verified
// against the same digest scheme it is being written with).
func (s *Store) putTier(c *tierCounters, root string, hash [sha256.Size]byte, key string, body []byte, promotion bool) {
	path := pathFor(root, hash)
	if prev, err := os.ReadFile(path); err == nil {
		if old, ok := decode(prev, key); ok {
			// An incumbent entry: keep it. Byte-identity is the system
			// invariant, so a divergence is worth a counter, not a
			// silent overwrite — cross-check via the digests both
			// bodies would be served under. Either way the put is an
			// access, so refresh the entry's recency.
			if !promotion && digest.Sum(old) != digest.Sum(body) {
				c.conflicts.Add(1)
			}
			if root == s.dir {
				s.touch(hash)
			}
			return
		}
		// Corrupt incumbent: fall through and replace it.
	}
	data := encode(key, body)
	if err := writeAtomic(path, data); err != nil {
		return // disk trouble degrades to a smaller cache, never an error
	}
	c.puts.Add(1)
	if root == s.dir {
		s.add(hash, int64(len(data)))
		s.evict()
	}
}

// writeAtomic publishes data at path via a same-directory temp file
// and os.Rename, so a crash mid-write leaves only a sweepable temp
// and readers only ever see whole files.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// touch bumps hash's logical access time (and, best-effort, its file
// mtime so access order survives a restart).
func (s *Store) touch(hash [sha256.Size]byte) {
	s.mu.Lock()
	if e, ok := s.index[hash]; ok {
		s.clock++
		e.atime = s.clock
		s.index[hash] = e
	}
	s.mu.Unlock()
	now := time.Now()
	os.Chtimes(pathFor(s.dir, hash), now, now)
}

// add indexes a freshly written tier-2 entry as most recently used.
func (s *Store) add(hash [sha256.Size]byte, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	s.bytes += size - s.index[hash].size // a missing entry reads as size 0
	s.index[hash] = entry{size: size, atime: s.clock}
}

// drop unindexes hash (its file is already gone or going).
func (s *Store) drop(hash [sha256.Size]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[hash]; ok {
		s.bytes -= e.size
		delete(s.index, hash)
	}
}

// evict removes least-recently-accessed tier-2 entries until the
// byte bound holds. One sweeper runs at a time; lookups and puts
// proceed meanwhile (a Get racing its entry's eviction simply
// misses, which is always safe).
func (s *Store) evict() {
	if s.maxBytes <= 0 {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	for {
		s.mu.Lock()
		if s.bytes <= s.maxBytes || len(s.index) == 0 {
			s.mu.Unlock()
			return
		}
		var oldest [sha256.Size]byte
		var old entry
		first := true
		for h, e := range s.index {
			if first || e.atime < old.atime ||
				(e.atime == old.atime && bytes.Compare(h[:], oldest[:]) < 0) {
				oldest, old, first = h, e, false
			}
		}
		s.bytes -= old.size
		delete(s.index, oldest)
		s.mu.Unlock()
		os.Remove(pathFor(s.dir, oldest))
		s.t2.evictions.Add(1)
	}
}

// Stats snapshots both persistent tiers (zero for a nil store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := Stats{Disk: s.t2.snapshot(), Shared: s.t3.snapshot()}
	s.mu.Lock()
	st.Disk.Bytes = s.bytes
	st.Disk.Entries = len(s.index)
	s.mu.Unlock()
	return st
}
