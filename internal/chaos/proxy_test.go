package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startProxy stands a Proxy up in front of srv and returns a base URL
// pointing at the proxy.
func startProxy(t *testing.T, srv *httptest.Server, in *Injector, spare map[string]bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &Proxy{
		Upstream: strings.TrimPrefix(srv.URL, "http://"),
		Inj:      in,
		Spare:    spare,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Serve(ln)
	}()
	t.Cleanup(func() {
		p.Close()
		<-done
	})
	return "http://" + ln.Addr().String()
}

// proxyClient avoids cross-test keep-alive reuse so each test sees a
// fresh connection state.
func proxyClient() *http.Client {
	return &http.Client{Transport: &http.Transport{}}
}

func TestProxyTransparentPassThrough(t *testing.T) {
	srv, _ := newOrigin(t)
	base := startProxy(t, srv, nil, nil)
	client := proxyClient()
	defer client.CloseIdleConnections()
	for i := 0; i < 3; i++ { // keep-alive across requests
		resp, err := client.Post(base+"/v1/simulate", "application/json", bytes.NewReader([]byte(`{}`)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(b, testBody) {
			t.Fatalf("request %d: transparent proxy altered the exchange (status %d, %d bytes)", i, resp.StatusCode, len(b))
		}
	}
}

func TestProxyReset(t *testing.T) {
	srv, _ := newOrigin(t)
	in, _ := New(Config{Seed: 1, Reset: Class{Prob: 1}})
	base := startProxy(t, srv, in, nil)
	client := proxyClient()
	defer client.CloseIdleConnections()
	if _, err := client.Get(base); err == nil {
		t.Fatal("reset must surface as a connection error")
	}
}

func TestProxyErr5xxKeepsConnectionUsable(t *testing.T) {
	srv, hits := newOrigin(t)
	// First event 503, then inert (budget 1).
	in, _ := New(Config{Seed: 1, Err5xx: Class{Prob: 1, Max: 1}})
	base := startProxy(t, srv, in, nil)
	client := proxyClient()
	defer client.CloseIdleConnections()
	resp, err := client.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want injected 503", resp.StatusCode)
	}
	if hits.Load() != 0 {
		t.Fatal("injected 503 must not consult the upstream")
	}
	// Same keep-alive connection must still carry the next request.
	resp, err = client.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(b, testBody) {
		t.Fatal("connection unusable after injected 503")
	}
}

func TestProxyCorruptKeepsFraming(t *testing.T) {
	srv, _ := newOrigin(t)
	in, _ := New(Config{Seed: 1, Corrupt: Class{Prob: 1}})
	base := startProxy(t, srv, in, nil)
	client := proxyClient()
	defer client.CloseIdleConnections()
	resp, err := client.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(b) != len(testBody) {
		t.Fatalf("corruption broke framing: err=%v status=%d len=%d", err, resp.StatusCode, len(b))
	}
	if bytes.Equal(b, testBody) {
		t.Fatal("corruption left the body identical")
	}
}

func TestProxyTruncate(t *testing.T) {
	srv, _ := newOrigin(t)
	in, _ := New(Config{Seed: 1, Truncate: Class{Prob: 1}})
	base := startProxy(t, srv, in, nil)
	client := proxyClient()
	defer client.CloseIdleConnections()
	resp, err := client.Get(base)
	if err == nil {
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && len(b) == len(testBody) {
			t.Fatal("truncated response arrived whole")
		}
	}
}

func TestProxyBlackholeHoldsUntilClientGivesUp(t *testing.T) {
	srv, hits := newOrigin(t)
	in, _ := New(Config{Seed: 1, Blackhole: Class{Prob: 1}})
	base := startProxy(t, srv, in, nil)
	client := &http.Client{Timeout: 100 * time.Millisecond, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	start := time.Now()
	if _, err := client.Get(base); err == nil {
		t.Fatal("blackholed request must time out")
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Fatal("blackhole gave up before the client did")
	}
	if hits.Load() != 0 {
		t.Fatal("blackholed request reached the upstream")
	}
}

func TestProxySparesControlPlane(t *testing.T) {
	srv, _ := newOrigin(t)
	in, _ := New(Config{Seed: 1, Reset: Class{Prob: 1}})
	base := startProxy(t, srv, in, map[string]bool{"/healthz": true})
	client := proxyClient()
	defer client.CloseIdleConnections()
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("spared path must pass through, got %v", err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if s := in.Stats(); s.Events != 0 {
		t.Fatalf("spared request consumed a schedule event: %+v", s)
	}
}

// TestProxyDeterministicStats is the CI determinism gate in miniature:
// same seed + same request sequence through two independent proxies →
// identical per-class injected counts.
func TestProxyDeterministicStats(t *testing.T) {
	srv, _ := newOrigin(t)
	cfg := Config{
		Seed:    42,
		Reset:   Class{Prob: 0.2, Max: 10},
		Err5xx:  Class{Prob: 0.2, Max: 10},
		Corrupt: Class{Prob: 0.2, Max: 10},
	}
	run := func() Stats {
		in, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := startProxy(t, srv, in, nil)
		// Fresh connection per request: net/http silently replays
		// replayable requests that die on *reused* connections, which
		// would add schedule events at timing-dependent points.
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		defer client.CloseIdleConnections()
		for i := 0; i < 100; i++ {
			resp, err := client.Post(base+"/cell", "application/json",
				bytes.NewReader([]byte(fmt.Sprintf(`{"seed":%d}`, i))))
			if err != nil {
				continue // injected failure: the event still counted
			}
			io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		return in.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("stats diverged across identical runs:\n run1 %+v\n run2 %+v", a, b)
	}
	if a.Events != 100 {
		t.Fatalf("events %d, want one per request", a.Events)
	}
	if injected(a) == 0 {
		t.Fatal("schedule injected nothing")
	}
}
