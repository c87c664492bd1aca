package server

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"busaware/internal/store"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// scrape reads url's /metrics.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", got)
	}
	return string(body)
}

// goldenCompare compares got with testdata/name, or rewrites the file
// under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden; got:\n%s", path, got)
	}
}

// timedSamples matches the exposition values that wall-clock timing
// decides: the latency histogram's finite buckets and its sum.
var timedSamples = regexp.MustCompile(`(?m)^(smpsimd_request_duration_seconds_(?:bucket\{le="[0-9.]+"\}|sum)) .*$`)

// TestMetricsExpositionGolden pins smpsimd's whole /metrics text after
// a fixed sequence that moves every counter family: a miss, a tier-1
// hit, a tier-2 hit after a restart on the same store directory, a
// 400, a 405, a sweep with a duplicate cell and an admission deadline
// shed. Only the latency buckets and sum are masked.
func TestMetricsExpositionGolden(t *testing.T) {
	dir := t.TempDir()
	cellA := fmt.Sprintf(`{"apps":%q,"policy":"window"}`, smallSpec)
	cellB := fmt.Sprintf(`{"apps":%q,"policy":"latest"}`, smallSpec)
	cellC := fmt.Sprintf(`{"apps":%q,"policy":"linux","seed":3}`, smallSpec)

	// Before the restart: cellB is computed into tier 2.
	s0, ts0 := newTestServer(t, Config{Workers: 1, Store: openStore(t, store.Config{Dir: dir})})
	if resp, body := post(t, ts0.URL, cellB); resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding tier 2: %d %s", resp.StatusCode, body)
	}
	ts0.Close()
	s0.Close()

	_, ts := newTestServer(t, Config{Workers: 1, Store: openStore(t, store.Config{Dir: dir})})
	for _, step := range []struct {
		method, path, body, deadline string
		status                       int
		cache                        string
	}{
		{"POST", "/v1/simulate", cellA, "", 200, "miss"},
		{"POST", "/v1/simulate", cellA, "", 200, "hit"},
		{"POST", "/v1/simulate", cellB, "", 200, "hit-t2"},
		{"POST", "/v1/simulate", `{"apps":"NoSuchApp"}`, "", 400, ""},
		{"GET", "/v1/simulate", "", "", 405, ""},
		{"POST", "/v1/sweep", `{"cells":[` + cellC + `,` + cellC + `]}`, "", 200, ""},
		{"POST", "/v1/simulate", cellA, "1", 504, ""},
	} {
		req, err := http.NewRequest(step.method, ts.URL+step.path, strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		if step.deadline != "" {
			req.Header.Set(DeadlineHeader, step.deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != step.status || resp.Header.Get("X-Cache") != step.cache {
			t.Fatalf("%s %s: status %d X-Cache %q, want %d %q; body %s", step.method, step.path,
				resp.StatusCode, resp.Header.Get("X-Cache"), step.status, step.cache, body)
		}
		if step.path == "/v1/sweep" {
			if got := strings.Count(string(body), `"cache":"miss"`) + strings.Count(string(body), `"cache":"hit"`); got != 2 {
				t.Fatalf("sweep: want one miss and one coalesced hit, got %s", body)
			}
		}
	}
	goldenCompare(t, "metrics.golden", timedSamples.ReplaceAllString(scrape(t, ts.URL), "$1 <timed>"))
}
