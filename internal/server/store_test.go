package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"busaware/internal/store"
)

func openStore(t *testing.T, cfg store.Config) *store.Store {
	t.Helper()
	st, err := store.Open(cfg)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// Warm restart: a body computed before a "restart" (new Server, same
// store dir) is replayed byte-identically from tier 2 without running
// the simulator again.
func TestSimulateWarmRestartFromTier2(t *testing.T) {
	dir := t.TempDir()
	reqJSON := fmt.Sprintf(`{"apps":%q,"policy":"window"}`, smallSpec)

	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: openStore(t, store.Config{Dir: dir})})
	resp, coldBody := post(t, ts1.URL, reqJSON)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold run: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if got := s1.StoreStats().Disk.Puts; got != 1 {
		t.Fatalf("cold run store puts = %d, want 1", got)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: openStore(t, store.Config{Dir: dir})})
	resp, warmBody := post(t, ts2.URL, reqJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: status %d body %s", resp.StatusCode, warmBody)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit-t2" {
		t.Fatalf("warm run X-Cache = %q, want hit-t2", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("warm body differs from cold body")
	}
	if done := s2.pool.Completed(); done != 0 {
		t.Fatalf("warm run computed %d cells, want 0", done)
	}
	// The tier-2 hit promoted the body into the memory cache: the next
	// replay is a plain tier-1 hit.
	resp, _ = post(t, ts2.URL, reqJSON)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second warm replay X-Cache = %q, want hit", got)
	}
	st := s2.StoreStats()
	if st.Disk.Hits != 1 || st.Disk.VerifyFails != 0 {
		t.Fatalf("warm store stats = %+v", st.Disk)
	}
}

// Warm join: a backend that never computed anything serves another
// backend's results from the shared tier (and promotes them locally).
func TestSimulateWarmJoinFromSharedTier(t *testing.T) {
	shared := t.TempDir()
	reqJSON := fmt.Sprintf(`{"apps":%q,"policy":"latest"}`, smallSpec)

	_, tsA := newTestServer(t, Config{Workers: 2,
		Store: openStore(t, store.Config{Dir: t.TempDir(), SharedDir: shared})})
	resp, coldBody := post(t, tsA.URL, reqJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d", resp.StatusCode)
	}

	joiner, tsB := newTestServer(t, Config{Workers: 2,
		Store: openStore(t, store.Config{Dir: t.TempDir(), SharedDir: shared})})
	resp, warmBody := post(t, tsB.URL, reqJSON)
	if got := resp.Header.Get("X-Cache"); got != "hit-t3" {
		t.Fatalf("joiner X-Cache = %q, want hit-t3", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("joiner body differs from original")
	}
	if done := joiner.pool.Completed(); done != 0 {
		t.Fatalf("joiner computed %d cells, want 0", done)
	}
	// Promotion: replay after clearing the memory tier hits local disk.
	joiner.cache = store.NewCache(DefaultCacheSize, joiner.cfg.Store)
	resp, _ = post(t, tsB.URL, reqJSON)
	if got := resp.Header.Get("X-Cache"); got != "hit-t2" {
		t.Fatalf("post-promotion X-Cache = %q, want hit-t2", got)
	}
}

// The sweep path reads and labels the persistent tiers too.
func TestSweepServesFromStore(t *testing.T) {
	dir := t.TempDir()
	sweepJSON := fmt.Sprintf(`{"cells":[{"apps":%q,"policy":"window"},{"apps":%q,"policy":"latest"}]}`,
		smallSpec, smallSpec)

	_, ts1 := newTestServer(t, Config{Workers: 2, Store: openStore(t, store.Config{Dir: dir})})
	resp, err := http.Post(ts1.URL+"/v1/sweep", "application/json", strings.NewReader(sweepJSON))
	if err != nil {
		t.Fatal(err)
	}
	cold := readSweepLines(t, resp)
	if len(cold) != 2 {
		t.Fatalf("cold sweep lines = %d", len(cold))
	}

	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: openStore(t, store.Config{Dir: dir})})
	resp, err = http.Post(ts2.URL+"/v1/sweep", "application/json", strings.NewReader(sweepJSON))
	if err != nil {
		t.Fatal(err)
	}
	warm := readSweepLines(t, resp)
	if len(warm) != 2 {
		t.Fatalf("warm sweep lines = %d", len(warm))
	}
	for _, line := range warm {
		if line.Status != http.StatusOK || line.Cache != "hit-t2" {
			t.Fatalf("warm line %d: status %d cache %q", line.Index, line.Status, line.Cache)
		}
		if !bytes.Equal(line.Response, cold[line.Index].Response) {
			t.Fatalf("warm line %d body differs", line.Index)
		}
	}
	if done := s2.pool.Completed(); done != 0 {
		t.Fatalf("warm sweep computed %d cells, want 0", done)
	}
}

// readSweepLines drains an NDJSON sweep response, indexed by cell.
func readSweepLines(t *testing.T, resp *http.Response) map[int]SweepCellResult {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	lines := make(map[int]SweepCellResult)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line SweepCellResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad sweep line %q: %v", sc.Text(), err)
		}
		lines[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
