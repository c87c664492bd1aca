package gateway

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
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

// TestMetricsExpositionGolden pins smpgw's own /metrics text after a
// fixed sequence: a simulate and its repeat, a sweep with a locally
// invalid cell, a local 400 and 405, and an /admin/backends add and
// remove. Hedging is off so the hedge counters cannot race the cells;
// backend addresses, which httptest picks at random, are normalized.
// The backends' own expositions are not pinned here: their counts
// depend on which backend the ring hands each cell.
func TestMetricsExpositionGolden(t *testing.T) {
	c := newCluster(t, 2, Config{HedgeDelayMin: -1})
	for _, step := range []struct {
		method, path, body string
		status             int
	}{
		{"POST", "/v1/simulate", cellBody(1), 200},
		{"POST", "/v1/simulate", cellBody(1), 200},
		{"POST", "/v1/sweep", `{"cells":[` + cellBody(1) + `,` + cellBody(2) + `,{"apps":"NoSuchApp"}]}`, 200},
		{"POST", "/v1/simulate", `{"apps":"NoSuchApp"}`, 400},
		{"GET", "/v1/simulate", "", 405},
		{"POST", "/admin/backends", `{"op":"add","backend":"http://127.0.0.1:9"}`, 200},
		{"POST", "/admin/backends", `{"op":"remove","backend":"http://127.0.0.1:9"}`, 200},
	} {
		req, err := http.NewRequest(step.method, c.gwts.URL+step.path, strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != step.status {
			t.Fatalf("%s %s: status %d, want %d; body %s", step.method, step.path, resp.StatusCode, step.status, body)
		}
	}
	got := scrape(t, c.gwts.URL)
	for i, b := range c.backends {
		got = strings.ReplaceAll(got, b.URL, fmt.Sprintf("http://backend%d", i))
	}

	path := "testdata/metrics.golden"
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
