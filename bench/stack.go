package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"busaware/internal/digest"
	"busaware/internal/gateway"
	"busaware/internal/server"
	"busaware/internal/store"
)

// backends is the serving stack's server count.
const backends = 2

// stack is the in-process serving plane: a gateway in front of two
// servers, each with one simulation worker and otherwise default
// settings, each with its own tier-2 directory and both sharing one
// tier-3 directory. Every component is served by an httptest server on
// the loopback interface.
type stack struct {
	root     string
	tr       *tracer
	client   *http.Client
	servers  []*server.Server
	backends []*httptest.Server
	gw       *gateway.Gateway
	front    *httptest.Server
}

func openStack(dir string, tr *tracer) (*stack, error) {
	root, err := os.MkdirTemp(dir, "stack-")
	if err != nil {
		return nil, err
	}
	st := &stack{root: root, tr: tr, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
	if err := st.open(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) open() error {
	var urls []string
	for i := 0; i < backends; i++ {
		srv, err := st.newServer(i)
		if err != nil {
			return err
		}
		ts := httptest.NewServer(st.tr.handler(layerServer, srv))
		st.servers = append(st.servers, srv)
		st.backends = append(st.backends, ts)
		urls = append(urls, ts.URL)
	}
	cfg := gateway.Config{Backends: urls}
	if st.tr != nil {
		// The gateway's own default client, wrapped to record round trips.
		cfg.Client = &http.Client{Transport: st.tr.transport(&http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256})}
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	st.gw = gw
	st.front = httptest.NewServer(st.tr.handler(layerGateway, gw))
	return nil
}

// newServer opens server i's store tiers and starts a server on them.
func (st *stack) newServer(i int) (*server.Server, error) {
	s, err := store.Open(store.Config{
		Dir:       filepath.Join(st.root, "t2-"+strconv.Itoa(i)),
		SharedDir: filepath.Join(st.root, "t3"),
	})
	if err != nil {
		return nil, err
	}
	return server.New(server.Config{Workers: 1, Store: s}), nil
}

func (st *stack) close() {
	if st.front != nil {
		st.front.Close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, ts := range st.backends {
		ts.Close()
	}
	for _, srv := range st.servers {
		srv.Close()
	}
	st.client.CloseIdleConnections()
}

// counters sums the servers' tier-1 counters, their tier-2 puts and the
// cells their pools computed (healthz "completed").
type counters struct {
	t1        server.CacheStats
	t2Puts    uint64
	completed int64
}

func (st *stack) counters() (counters, error) {
	var c counters
	for i, srv := range st.servers {
		t1 := srv.CacheStats()
		c.t1.Hits += t1.Hits
		c.t1.Misses += t1.Misses
		c.t1.Evictions += t1.Evictions
		c.t2Puts += srv.StoreStats().Disk.Puts
		var h struct {
			Completed int64 `json:"completed"`
		}
		if err := st.getJSON(st.backends[i].URL+"/healthz", &h); err != nil {
			return c, err
		}
		c.completed += h.Completed
	}
	return c, nil
}

func (st *stack) getJSON(url string, v any) error {
	resp, err := st.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// post sends body to the gateway and returns the response; op ≥ 0
// traces the call as that operation.
func (st *stack) post(path string, body []byte, op int64) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, st.front.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var start time.Duration
	if op >= 0 {
		start = st.tr.now()
		req.Header.Set(traceHeader, strconv.FormatInt(op, 10))
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if op >= 0 {
		st.tr.record(span{layer: layerClient, op: op, class: path, start: start, end: st.tr.now()})
	}
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp, b, nil
}

// simulate posts one cell and returns its digest-verified body and
// X-Cache class.
func (st *stack) simulate(body []byte, op int64) ([]byte, string, error) {
	resp, b, err := st.post("/v1/simulate", body, op)
	if err != nil {
		return nil, "", err
	}
	if d := resp.Header.Get(digest.Header); d == "" || d != digest.Sum(b) {
		return nil, "", fmt.Errorf("body digest %q does not verify", d)
	}
	return b, resp.Header.Get("X-Cache"), nil
}
