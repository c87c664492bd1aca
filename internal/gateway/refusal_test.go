package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRefusalsCarryJSONEnvelope: every refusal either daemon answers,
// whichever endpoint and whichever check refuses it, is the JSON error
// envelope — status, Content-Type application/json and a non-empty
// "error" field — never a text/plain line.
func TestRefusalsCarryJSONEnvelope(t *testing.T) {
	c := newCluster(t, 1, Config{})
	shared := []struct {
		method, path, body string
		status             int
	}{
		{"POST", "/healthz", "", 405},
		{"POST", "/metrics", "", 405},
		{"POST", "/v1/timeline", "", 405},
		{"GET", "/v1/timeline?backlog=x", "", 400},
		{"GET", "/v1/timeline?max=-1", "", 400},
		{"GET", "/v1/simulate", "", 405},
		{"POST", "/v1/simulate", "{", 400},
		{"POST", "/v1/simulate", `{"apps":"CG","policy":"fifo"}`, 400},
		{"GET", "/v1/sweep", "", 405},
		{"POST", "/v1/sweep", `{"cells":[]}`, 400},
		{"GET", "/no/such/endpoint", "", 404},
	}
	type row struct {
		daemon, method, path, body string
		status                     int
	}
	var rows []row
	for _, d := range []struct{ name, url string }{{"smpsimd", c.backends[0].URL}, {"smpgw", c.gwts.URL}} {
		for _, s := range shared {
			rows = append(rows, row{d.name, s.method, d.url + s.path, s.body, s.status})
		}
	}
	rows = append(rows,
		row{"smpgw", "PUT", c.gwts.URL + "/admin/backends", "", 405},
		row{"smpgw", "POST", c.gwts.URL + "/admin/backends", `{"op":"resize"}`, 400},
		row{"smpgw", "POST", c.gwts.URL + "/admin/backends", `{"op":"add","backend":"` + c.backends[0].URL + `"}`, 409},
	)
	for _, r := range rows {
		req, err := http.NewRequest(r.method, r.path, strings.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env struct {
			Error string `json:"error"`
		}
		name := r.daemon + " " + r.method + " " + strings.TrimPrefix(strings.TrimPrefix(r.path, c.gwts.URL), c.backends[0].URL)
		switch {
		case resp.StatusCode != r.status:
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, r.status)
		case resp.Header.Get("Content-Type") != "application/json":
			t.Errorf("%s: Content-Type %q, want application/json; body %q", name, resp.Header.Get("Content-Type"), body)
		case json.Unmarshal(body, &env) != nil || env.Error == "":
			t.Errorf("%s: body %q is not the error envelope", name, body)
		}
	}
}
