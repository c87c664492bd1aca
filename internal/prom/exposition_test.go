package prom_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"busaware/internal/gateway"
	"busaware/internal/server"
)

// checkExposition reports the first way text breaks the exposition
// rules both daemons keep: every family opens with exactly one # HELP
// line followed by its # TYPE line, every sample belongs to the family
// opened last, no series repeats, and a histogram's buckets are
// cumulative with the +Inf bucket equal to its _count.
func checkExposition(text string) error {
	families := map[string]bool{}
	series := map[string]bool{}
	var family, typ, pending string
	var last, inf, count float64
	closeHistogram := func() error {
		if typ == "histogram" && inf != count {
			return fmt.Errorf("%s: +Inf bucket %v != _count %v", family, inf, count)
		}
		return nil
	}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if pending != "" {
				return fmt.Errorf("line %d: # HELP %s not followed by its # TYPE", i+1, pending)
			}
			if err := closeHistogram(); err != nil {
				return err
			}
			if families[fields[2]] {
				return fmt.Errorf("line %d: family %s opened twice", i+1, fields[2])
			}
			families[fields[2]], pending, family, typ = true, fields[2], "", ""
		case strings.HasPrefix(line, "# TYPE "):
			if len(fields) != 4 || fields[2] != pending {
				return fmt.Errorf("line %d: %q does not follow # HELP %s", i+1, line, pending)
			}
			family, typ, pending = fields[2], fields[3], ""
			last, inf, count = 0, -1, -2
		default:
			if len(fields) != 2 || family == "" {
				return fmt.Errorf("line %d: sample %q outside a family", i+1, line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return fmt.Errorf("line %d: value %q: %v", i+1, fields[1], err)
			}
			if series[fields[0]] {
				return fmt.Errorf("line %d: series %s repeats", i+1, fields[0])
			}
			series[fields[0]] = true
			switch name, _, _ := strings.Cut(fields[0], "{"); {
			case typ != "histogram" && name == family:
			case typ == "histogram" && name == family+"_bucket":
				if v < last {
					return fmt.Errorf("line %d: bucket %s below the one before it", i+1, fields[0])
				}
				last = v
				if strings.Contains(fields[0], `le="+Inf"`) {
					inf = v
				}
			case typ == "histogram" && name == family+"_count":
				count = v
			case typ == "histogram" && name == family+"_sum":
			default:
				return fmt.Errorf("line %d: sample %s outside family %s", i+1, name, family)
			}
		}
	}
	if pending != "" {
		return fmt.Errorf("# HELP %s not followed by its # TYPE", pending)
	}
	return closeHistogram()
}

func TestCheckExposition(t *testing.T) {
	const good = "# HELP a_total A.\n# TYPE a_total counter\na_total{code=\"200\"} 3\n" +
		"# HELP d Latency.\n# TYPE d histogram\nd_bucket{le=\"1\"} 1\nd_bucket{le=\"+Inf\"} 2\nd_sum 1.5\nd_count 2\n" +
		"# HELP e Empty family.\n# TYPE e counter\n"
	if err := checkExposition(good); err != nil {
		t.Fatalf("well-formed exposition rejected: %v", err)
	}
	for name, text := range map[string]string{
		"sample before family": "a 1\n",
		"HELP without TYPE":    "# HELP a A.\na 1\n",
		"TYPE without HELP":    "# TYPE a counter\na 1\n",
		"TYPE of another name": "# HELP a A.\n# TYPE b counter\n",
		"family opened twice":  "# HELP a A.\n# TYPE a counter\n# HELP a A.\n# TYPE a counter\n",
		"series repeats":       "# HELP a A.\n# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n",
		"foreign sample":       "# HELP a A.\n# TYPE a counter\nb 1\n",
		"bad value":            "# HELP a A.\n# TYPE a counter\na x\n",
		"buckets decrease":     "# HELP d D.\n# TYPE d histogram\nd_bucket{le=\"1\"} 2\nd_bucket{le=\"+Inf\"} 1\nd_sum 0\nd_count 1\n",
		"+Inf differs":         "# HELP d D.\n# TYPE d histogram\nd_bucket{le=\"+Inf\"} 2\nd_sum 0\nd_count 3\n",
		"no _count":            "# HELP d D.\n# TYPE d histogram\nd_bucket{le=\"+Inf\"} 2\nd_sum 0\n",
	} {
		if checkExposition(text) == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
}

// TestDaemonExpositions holds both daemons' live /metrics to the
// exposition rules after traffic that fills every labelled family:
// the daemons' golden tests pin the bytes, with the latency histogram
// masked, and this checks what the masks hide.
func TestDaemonExpositions(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer srv.Close()
	defer ts.Close()
	gw, err := gateway.New(gateway.Config{Backends: []string{ts.URL}, ProbeInterval: -1, HedgeDelayMin: -1})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer gw.Close()
	defer gts.Close()

	cell := `{"apps":"CG, BBMA, nBBMA","policy":"window"}`
	for _, req := range []struct{ method, url, body, deadline string }{
		{"POST", gts.URL + "/v1/simulate", cell, ""},
		{"POST", gts.URL + "/v1/simulate", cell, ""},
		{"POST", gts.URL + "/v1/sweep", `{"cells":[` + cell + `,{"apps":"CG","policy":"linux"},{"apps":"NoSuchApp"}]}`, ""},
		{"POST", gts.URL + "/v1/simulate", `{"apps":"NoSuchApp"}`, ""},
		{"POST", ts.URL + "/v1/simulate", `{"apps":"NoSuchApp"}`, ""},
		{"GET", ts.URL + "/v1/simulate", "", ""},
		{"POST", ts.URL + "/v1/simulate", cell, "1"},
	} {
		r, err := http.NewRequest(req.method, req.url, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		if req.deadline != "" {
			r.Header.Set(server.DeadlineHeader, req.deadline)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for _, url := range []string{ts.URL, gts.URL} {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := checkExposition(string(body)); err != nil {
			t.Errorf("%s/metrics: %v\n%s", url, err, body)
		}
		for _, want := range []string{"_requests_total{code=\"200\"}", "_requests_total{code=\"400\"}"} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s/metrics lacks %s", url, want)
			}
		}
	}
}
