package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// smallSpec is a fast-but-real workload: one finite application plus
// both antagonists, the shape every figure cell has.
const smallSpec = "CG, BBMA, nBBMA"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, reqBody string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestSimulateMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	reqJSON := fmt.Sprintf(`{"apps":%q,"policy":"window"}`, smallSpec)
	resp, body := post(t, ts.URL, reqJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q", got)
	}

	// The server body must be byte-identical to building and running
	// the same request locally — the CLI-diffability contract.
	c, err := canon(Request{Apps: smallSpec, Policy: "window"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.run.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewResponse(res, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.MarshalBody()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Errorf("server body diverged from direct run:\nserver: %s\ndirect: %s", body, want)
	}

	var decoded Response
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if len(decoded.Apps) != 1 || decoded.Apps[0].Instance != "CG#1" {
		t.Errorf("apps = %+v, want the one finite CG instance", decoded.Apps)
	}
	if decoded.Quanta == 0 || decoded.EndTimeUsec == 0 {
		t.Errorf("empty machine stats: %+v", decoded)
	}
}

func TestByteIdenticalRepeatAndCanonicalization(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	resp1, body1 := post(t, ts.URL, `{"apps":"CG x2, BBMA x2"}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}

	// Same canonical request, different spelling: defaults written out,
	// multiplicity unrolled. Must hit and replay the exact bytes.
	resp2, body2 := post(t, ts.URL, `{"apps":"CG, CG, BBMA, BBMA","policy":"window","seed":1}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", got)
	}
	if string(body1) != string(body2) {
		t.Errorf("cached body diverged:\nfirst:  %s\nsecond: %s", body1, body2)
	}
	cs := s.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", cs)
	}

	// A genuinely different request (other seed under linux) must miss.
	resp3, _ := post(t, ts.URL, `{"apps":"CG, CG, BBMA, BBMA","policy":"linux","seed":7}`)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("distinct request X-Cache = %q, want miss", got)
	}
}

func TestSimulateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	tests := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"apps":`},
		{"unknown field", `{"apps":"CG","bogus":1}`},
		{"unknown app", `{"apps":"NoSuchApp x2"}`},
		{"bad multiplicity", `{"apps":"CG x0"}`},
		{"empty workload", `{"apps":""}`},
		{"unknown policy", `{"apps":"CG","policy":"fifo"}`},
		{"negative cpus", `{"apps":"CG","cpus":-1}`},
		{"negative max time", `{"apps":"CG","max_time_usec":-5}`},
		{"fault rate out of range", `{"apps":"CG","faults":{"SampleLoss":1.5}}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, body := post(t, ts.URL, tt.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s, want 400", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q not a JSON error envelope", body)
			}
		})
	}
}

func TestSimulateMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate = %d, want 405", resp.StatusCode)
	}
}

func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	s.testRunHook = func() { <-gate }
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()

	// Two distinct requests: one occupies the lone worker, one fills
	// the queue slot.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			resp, body := post(t, ts.URL, fmt.Sprintf(`{"apps":%q,"policy":"linux","seed":%d}`, smallSpec, seed+1))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("held request %d: %d %s", seed, resp.StatusCode, body)
			}
		}(i)
	}
	waitFor(t, func() bool { return s.pool.Busy() == 1 && s.pool.QueueDepth() == 1 })

	// The third must be shed, not queued.
	resp, body := post(t, ts.URL, fmt.Sprintf(`{"apps":%q,"policy":"linux","seed":9}`, smallSpec))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, body %s, want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}

	close(gate)
	wg.Wait()
}

// TestSimDelay covers the -simdelay knob: the configured artificial
// cell latency must be paid on a cache miss (it stands in for an
// expensive cell) and skipped entirely on a cache hit.
func TestSimDelay(t *testing.T) {
	const delay = 80 * time.Millisecond
	_, ts := newTestServer(t, Config{Workers: 1, SimDelay: delay})

	t0 := time.Now()
	resp, body := post(t, ts.URL, fmt.Sprintf(`{"apps":%q}`, smallSpec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("miss status = %d, body %s", resp.StatusCode, body)
	}
	if took := time.Since(t0); took < delay {
		t.Errorf("cache miss took %s, want >= %s", took, delay)
	}

	t0 = time.Now()
	resp, body = post(t, ts.URL, fmt.Sprintf(`{"apps":%q}`, smallSpec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hit status = %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("second response not served from cache")
	}
	if took := time.Since(t0); took >= delay {
		t.Errorf("cache hit took %s, want < %s", took, delay)
	}
}

func TestRequestDeadline(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 30 * time.Millisecond})
	s.testRunHook = func() { <-gate }
	defer close(gate)

	resp, body := post(t, ts.URL, fmt.Sprintf(`{"apps":%q}`, smallSpec))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s, want 504", resp.StatusCode, body)
	}
}

// TestLateCompletionPopulatesCache times out a slow cell (504), lets
// the worker finish, and asserts the retry is served from the cache —
// the late result must be salvaged, not dropped and recomputed.
func TestLateCompletionPopulatesCache(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 30 * time.Millisecond})
	s.testRunHook = func() { <-gate }

	reqJSON := fmt.Sprintf(`{"apps":%q}`, smallSpec)
	resp, body := post(t, ts.URL, reqJSON)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow cell status = %d, body %s, want 504", resp.StatusCode, body)
	}

	// Release the worker and wait for the salvage goroutine to cache
	// the late result.
	close(gate)
	s.testRunHook = nil
	waitFor(t, func() bool { return s.CacheStats().Entries == 1 })

	resp, body = post(t, ts.URL, reqJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("retry X-Cache = %q, want hit (late completion was not salvaged)", got)
	}

	// The salvaged body must be byte-identical to a direct run — the
	// cache-replay contract does not weaken for late entries.
	c, err := canon(Request{Apps: smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.run.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewResponse(res, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.MarshalBody()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Errorf("salvaged body diverged from direct run:\nserver: %s\ndirect: %s", body, want)
	}
}

func TestTraceEmbedded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := post(t, ts.URL, fmt.Sprintf(`{"apps":%q,"trace":true}`, smallSpec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var decoded Response
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(decoded.TraceEvents, &events); err != nil {
		t.Fatalf("trace_events not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Error("trace_events empty")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 1 {
		t.Errorf("healthz body = %s", body)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// One miss, one hit, one 400.
	post(t, ts.URL, fmt.Sprintf(`{"apps":%q}`, smallSpec))
	post(t, ts.URL, fmt.Sprintf(`{"apps":%q}`, smallSpec))
	post(t, ts.URL, `{"apps":"NoSuchApp"}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`smpsimd_requests_total{code="200"} 2`,
		`smpsimd_requests_total{code="400"} 1`,
		"smpsimd_request_duration_seconds_bucket{le=\"+Inf\"} 3",
		"smpsimd_request_duration_seconds_count 3",
		"smpsimd_queue_depth 0",
		"smpsimd_pool_workers 1",
		"smpsimd_cache_hits_total 1",
		"smpsimd_cache_misses_total 1",
		"smpsimd_cache_hit_ratio 0.5",
		"smpsimd_cells_completed_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q;\n%s", want, text)
		}
	}
}

func TestConcurrentIdenticalRequests(t *testing.T) {
	// Many clients asking for the same cell concurrently: every
	// response must be byte-identical regardless of whether it was a
	// miss (computed) or a hit (replayed).
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL, fmt.Sprintf(`{"apps":%q}`, smallSpec))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("response %d diverged from response 0", i)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
