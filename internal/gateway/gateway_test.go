package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"busaware/internal/faults"
	"busaware/internal/server"
)

const smallSpec = "CG, BBMA, nBBMA"

// cluster is two real smpsimd serving stacks behind one gateway.
type cluster struct {
	gw       *Gateway
	gwts     *httptest.Server
	backends []*httptest.Server
	servers  []*server.Server
}

func newCluster(t *testing.T, n int, cfg Config) *cluster {
	t.Helper()
	return newClusterWithServerConfig(t, n, cfg, server.Config{Workers: 2})
}

func newClusterWithServerConfig(t *testing.T, n int, cfg Config, scfg server.Config) *cluster {
	t.Helper()
	c := &cluster{}
	for i := 0; i < n; i++ {
		s := server.New(scfg)
		ts := httptest.NewServer(s)
		c.servers = append(c.servers, s)
		c.backends = append(c.backends, ts)
		cfg.Backends = append(cfg.Backends, ts.URL)
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // tests drive ProbeOnce explicitly
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.gw = gw
	c.gwts = httptest.NewServer(gw)
	t.Cleanup(func() {
		c.gwts.Close()
		gw.Close()
	})
	return c
}

func post(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func cellBody(seed int) string {
	return fmt.Sprintf(`{"apps":%q,"policy":"linux","seed":%d}`, smallSpec, seed)
}

// seedsOwnedByEach returns the cell seeds 1, 2, ... up to the first
// at which each of c's two backends owns at least min of them on the
// gateway's own ring. The ring is built over the backends' random
// ports, so fixed seeds could all land on one backend.
func seedsOwnedByEach(t *testing.T, c *cluster, min int) []int {
	t.Helper()
	ring := c.gw.cluster.Load().ring
	var seeds []int
	owned := make([]int, len(c.servers))
	for seed := 1; owned[0] < min || owned[1] < min; seed++ {
		if seed > 1000 {
			t.Fatalf("a thousand cells left a backend owning fewer than %d: %v", min, owned)
		}
		req, err := server.DecodeRequest(strings.NewReader(cellBody(seed)))
		if err != nil {
			t.Fatal(err)
		}
		key, err := server.CanonicalKey(req)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := ring.owner(key)
		if !ok {
			t.Fatal("empty ring")
		}
		owned[b]++
		seeds = append(seeds, seed)
	}
	return seeds
}

// TestShardAffinity sends a set of distinct cells twice through a
// two-backend gateway: every repetition must land on the same backend
// (X-Backend stable per cell) and hit its cache, and the two backends'
// caches must partition the working set rather than both holding all
// of it. Where the backends sit on the ring depends on the ports they
// drew, so the cells are chosen with the gateway's own ring until each
// backend owns at least three; hedging is off, so a cell slow under
// -race is never computed on two shards.
func TestShardAffinity(t *testing.T) {
	c := newCluster(t, 2, Config{HedgeDelayMin: -1})
	seeds := seedsOwnedByEach(t, c, 3)
	owner := make(map[int]string)
	for pass := 0; pass < 2; pass++ {
		for _, seed := range seeds {
			resp, body := post(t, c.gwts.URL, "/v1/simulate", cellBody(seed))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pass %d seed %d: %d %s", pass, seed, resp.StatusCode, body)
			}
			backend := resp.Header.Get("X-Backend")
			if backend == "" {
				t.Fatal("X-Backend header missing")
			}
			wantCache := "miss"
			if pass == 1 {
				wantCache = "hit"
			}
			if got := resp.Header.Get("X-Cache"); got != wantCache {
				t.Errorf("pass %d seed %d: X-Cache = %q, want %q", pass, seed, got, wantCache)
			}
			if pass == 0 {
				owner[seed] = backend
			} else if owner[seed] != backend {
				t.Errorf("seed %d moved from %s to %s between passes", seed, owner[seed], backend)
			}
		}
	}
	// Shard partition: together the two caches hold each cell exactly
	// once.
	total := 0
	for _, s := range c.servers {
		cs := s.CacheStats()
		if cs.Entries == 0 {
			t.Error("one backend's cache is empty — no sharding happened (or a degenerate ring)")
		}
		total += cs.Entries
	}
	if total != len(seeds) {
		t.Errorf("caches hold %d entries for %d distinct cells — shards overlap", total, len(seeds))
	}
}

// TestGatewayRejectsBadRequestsLocally: an invalid cell must be 400ed
// by the gateway without spending a backend round trip.
func TestGatewayRejectsBadRequestsLocally(t *testing.T) {
	var backendHits atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backendHits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer fake.Close()
	gw, err := New(Config{Backends: []string{fake.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw)
	defer ts.Close()

	for _, body := range []string{
		`{"apps":"NoSuchApp"}`,
		`{"apps":"CG","policy":"fifo"}`,
		`{"apps":`,
		`{"apps":"CG","bogus":1}`,
	} {
		resp, b := post(t, ts.URL, "/v1/simulate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
	if n := backendHits.Load(); n != 0 {
		t.Errorf("invalid requests reached the backend %d times", n)
	}
}

// TestFailoverOnConnectionError kills one backend and checks a cell it
// owned is served by the survivor, byte-identically, with the dead
// backend ejected and the failover counted.
func TestFailoverOnConnectionError(t *testing.T) {
	c := newCluster(t, 2, Config{})
	// Find a cell owned by backend 0 and warm the reference body.
	var body0 []byte
	seed := 0
	for s := 1; s <= 64; s++ {
		resp, b := post(t, c.gwts.URL, "/v1/simulate", cellBody(s))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d", s, resp.StatusCode)
		}
		if resp.Header.Get("X-Backend") == strings.TrimPrefix(c.backends[0].URL, "http://") {
			seed, body0 = s, b
			break
		}
	}
	if seed == 0 {
		t.Fatal("no cell routed to backend 0 in 64 tries")
	}

	c.backends[0].Close() // kill the owner
	resp, b := post(t, c.gwts.URL, "/v1/simulate", cellBody(seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: %d %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Backend"); got != strings.TrimPrefix(c.backends[1].URL, "http://") {
		t.Errorf("failover served by %q, want the survivor", got)
	}
	if !bytes.Equal(b, body0) {
		t.Errorf("failover body diverged from the original:\nwas: %s\nnow: %s", body0, b)
	}
	if c.gw.Healthy() != 1 {
		t.Errorf("dead backend not ejected: %d healthy, want 1", c.gw.Healthy())
	}
	if got := c.gw.metrics.failovers.Load(); got == 0 {
		t.Error("failover not counted")
	}

	// With the owner ejected, the next repetition goes straight to the
	// survivor — and is a hit there now.
	resp, _ = post(t, c.gwts.URL, "/v1/simulate", cellBody(seed))
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("post-failover repetition X-Cache = %q, want hit", got)
	}
}

// TestProbeEjectionAndReadmission drives the health prober against a
// backend that can be switched between healthy and dead.
func TestProbeEjectionAndReadmission(t *testing.T) {
	var down atomic.Bool
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer fake.Close()
	gw, err := New(Config{Backends: []string{fake.URL}, ProbeInterval: -1, ProbeFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	gw.ProbeOnce()
	if gw.Healthy() != 1 {
		t.Fatal("healthy backend not admitted")
	}
	down.Store(true)
	gw.ProbeOnce()
	if gw.Healthy() != 1 {
		t.Error("ejected after one failure, want two (flap damping)")
	}
	gw.ProbeOnce()
	if gw.Healthy() != 0 {
		t.Error("backend not ejected after two consecutive probe failures")
	}
	down.Store(false)
	gw.ProbeOnce()
	if gw.Healthy() != 1 {
		t.Error("recovered backend not re-admitted on first successful probe")
	}
}

// TestRetryAfter429 exercises the 429 path: the gateway must wait out
// the backend's Retry-After (through the injectable sleeper) and
// retry the same backend, not fail over — the cell's cache line lives
// on that shard.
func TestRetryAfter429(t *testing.T) {
	var calls atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		w.Write([]byte(`{"ok":true}` + "\n"))
	}))
	defer fake.Close()

	var mu sync.Mutex
	var slept []time.Duration
	gw, err := New(Config{
		Backends:      []string{fake.URL},
		ProbeInterval: -1,
		Sleep: faults.Sleeper(func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw)
	defer ts.Close()

	resp, body := post(t, ts.URL, "/v1/simulate", `{"apps":"CG x2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d %s, want 200 after absorbed 429", resp.StatusCode, body)
	}
	if calls.Load() != 2 {
		t.Errorf("backend called %d times, want 2", calls.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Errorf("slept %v, want [3s] (Retry-After honored)", slept)
	}
	if gw.metrics.retries.Load() != 1 {
		t.Errorf("retries counter = %d, want 1", gw.metrics.retries.Load())
	}
}

// TestRetry429Exhausted: a persistently saturated shard's 429
// propagates to the client, Retry-After intact, without failover.
func TestRetry429Exhausted(t *testing.T) {
	var calls atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer fake.Close()
	gw, err := New(Config{
		Backends:      []string{fake.URL},
		ProbeInterval: -1,
		Retry429:      1,
		Sleep:         faults.Sleeper(func(time.Duration) {}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw)
	defer ts.Close()

	resp, _ := post(t, ts.URL, "/v1/simulate", `{"apps":"CG x2"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 passed through", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if calls.Load() != 2 { // initial + one retry
		t.Errorf("backend called %d times, want 2", calls.Load())
	}
	if gw.Healthy() != 1 {
		t.Error("429 must not eject a backend")
	}
}

// readSweepLines parses the gateway's merged NDJSON stream.
func readSweepLines(t *testing.T, body io.Reader) []SweepLine {
	t.Helper()
	var lines []SweepLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSweepThroughGateway shards one batch across two backends and
// checks completeness, byte-identity with the single-cell path, and
// that both shards actually served cells.
func TestSweepThroughGateway(t *testing.T) {
	c := newCluster(t, 2, Config{HedgeDelayMin: -1})
	var cells []string
	for _, seed := range seedsOwnedByEach(t, c, 5) {
		cells = append(cells, cellBody(seed))
	}
	n := len(cells)
	resp, err := http.Post(c.gwts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"cells":[`+strings.Join(cells, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	lines := readSweepLines(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	if len(lines) != n {
		t.Fatalf("got %d lines for %d cells", len(lines), n)
	}
	served := map[string]int{}
	got := make([]SweepLine, n)
	for _, l := range lines {
		if l.Status != http.StatusOK {
			t.Fatalf("cell %d: status %d (%s)", l.Index, l.Status, l.Error)
		}
		if l.Backend == "" {
			t.Fatal("line missing backend attribution")
		}
		served[l.Backend]++
		got[l.Index] = l
	}
	if len(served) != 2 {
		t.Errorf("sweep served by %d backends, want 2: %v", len(served), served)
	}
	// Byte identity against the single-cell path through the gateway.
	for i, cell := range cells {
		sresp, sbody := post(t, c.gwts.URL, "/v1/simulate", cell)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d: %d", i, sresp.StatusCode)
		}
		if sresp.Header.Get("X-Cache") != "hit" {
			t.Errorf("cell %d: simulate after sweep missed — sweep and simulate disagree on keys", i)
		}
		if want := strings.TrimSuffix(string(sbody), "\n"); string(got[i].Response) != want {
			t.Errorf("cell %d sweep body diverged from simulate", i)
		}
	}
}

// TestSweepFailover kills one backend mid-cluster before the sweep:
// the gateway re-shards its cells to the survivor and the sweep still
// completes fully.
func TestSweepFailover(t *testing.T) {
	c := newCluster(t, 2, Config{})
	c.backends[0].Close()
	const n = 8
	var cells []string
	for i := 1; i <= n; i++ {
		cells = append(cells, cellBody(i))
	}
	resp, err := http.Post(c.gwts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"cells":[`+strings.Join(cells, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	lines := readSweepLines(t, resp.Body)
	resp.Body.Close()
	if len(lines) != n {
		t.Fatalf("got %d lines for %d cells", len(lines), n)
	}
	for _, l := range lines {
		if l.Status != http.StatusOK {
			t.Errorf("cell %d: status %d (%s) — failover must not lose cells", l.Index, l.Status, l.Error)
		}
	}
	if c.gw.Healthy() != 1 {
		t.Errorf("dead backend not ejected during sweep: healthy = %d", c.gw.Healthy())
	}
}

// TestNoBackendsConfigured: constructing a gateway without backends is
// an error, not a panic at request time.
func TestNoBackendsConfigured(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends succeeded")
	}
}
