package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"busaware/internal/chaos"
	"busaware/internal/digest"
	"busaware/internal/server"
)

// TestAnsweredSweepStreamNotCharged: a sub-sweep whose own stream
// answered every cell it carried is a breaker success however the
// stream ends. The fake backend writes a verified line per cell and
// then holds the stream open until the gateway hangs up; with a
// one-failure breaker, charging that hang-up would open it.
func TestAnsweredSweepStreamNotCharged(t *testing.T) {
	var open atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		open.Add(1)
		defer open.Add(-1)
		var req server.SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := range req.Cells {
			resp := json.RawMessage(fmt.Sprintf(`{"cell":%d}`, i))
			b, _ := json.Marshal(server.SweepCellResult{Index: i, Status: http.StatusOK, Cache: "hit",
				Digest: digest.SumLine(http.StatusOK, i, resp), Response: resp})
			w.Write(append(b, '\n'))
		}
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer fake.Close()
	gw, err := New(Config{Backends: []string{fake.URL}, ProbeInterval: -1,
		BreakerFailures: 1, HedgeDelayMin: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw)
	defer ts.Close()

	const runs = 3
	for run := 0; run < runs; run++ {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"cells":[`+cellBody(1)+`,`+cellBody(2)+`,`+cellBody(3)+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		lines := readSweepLines(t, resp.Body)
		resp.Body.Close()
		if len(lines) != 3 {
			t.Fatalf("run %d: %d lines, want 3", run, len(lines))
		}
		for _, l := range lines {
			if l.Status != http.StatusOK {
				t.Fatalf("run %d cell %d: status %d (%s)", run, l.Index, l.Status, l.Error)
			}
		}
	}
	// Each hung-up stream settles its verdict after the response ends.
	br := gw.cluster.Load().backends[0].breaker
	deadline := time.Now().Add(5 * time.Second)
	for {
		br.mu.Lock()
		outcomes := br.ringN
		br.mu.Unlock()
		if outcomes == runs && open.Load() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d breaker outcomes and %d open streams, want %d and 0", outcomes, open.Load(), runs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if opened, _ := br.Transitions(); opened != 0 || br.State() != breakerClosed {
		t.Fatalf("breaker opened %d times (state %s): answered streams were charged as failures",
			opened, breakerStateName(br.State()))
	}
}

// parityOutcome is what one endpoint made of one cell under one fault.
type parityOutcome struct {
	status                                    int
	backend                                   string
	failovers, digestMismatches, exhaustedInc uint64
}

// TestSimulateSweepParity sends one cell as /v1/simulate and as a
// one-cell /v1/sweep, each through a fresh two-backend cluster under
// the same fault, and requires the one ledger to treat both alike:
// same status, same serving backend, same failover, digest and budget
// accounting.
func TestSimulateSweepParity(t *testing.T) {
	const cell = 3
	for _, tc := range []struct {
		name  string
		chaos chaos.Config
		cfg   Config
		// setup injects the fault at the cell's owner before the
		// measured request; flaky makes a backend answer 503.
		setup func(t *testing.T, p *parityCluster, owner int, send func() parityOutcome)
		want  parityOutcome
	}{
		{
			name: "owner-closed",
			setup: func(t *testing.T, p *parityCluster, owner int, _ func() parityOutcome) {
				p.backends[owner].Close()
			},
			want: parityOutcome{status: http.StatusOK, failovers: 1},
		},
		{
			name:  "reset",
			chaos: chaos.Config{Seed: 1, Reset: chaos.Class{Prob: 1, Max: 1}},
			want:  parityOutcome{status: http.StatusOK, failovers: 1},
		},
		{
			name:  "corrupt",
			chaos: chaos.Config{Seed: 2, Corrupt: chaos.Class{Prob: 1, Max: 1}},
			want:  parityOutcome{status: http.StatusOK, failovers: 1, digestMismatches: 1},
		},
		{
			name:  "err5xx",
			chaos: chaos.Config{Seed: 3, Err5xx: chaos.Class{Prob: 1, Max: 1}},
			want:  parityOutcome{status: http.StatusOK, failovers: 1},
		},
		{
			name: "budget-spent",
			cfg:  Config{RetryBudgetRatio: 0.0001, RetryBudgetFloor: 1},
			setup: func(t *testing.T, p *parityCluster, owner int, send func() parityOutcome) {
				p.flaky[owner].Store(true)
				if o := send(); o.status != http.StatusOK || o.failovers != 1 {
					t.Fatalf("budget-spending failover: %+v", o)
				}
			},
			want: parityOutcome{status: http.StatusServiceUnavailable, exhaustedInc: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]parityOutcome
			for k, sweep := range []bool{false, true} {
				p := newParityCluster(t, tc.cfg, tc.chaos)
				key, err := server.CanonicalKey(server.Request{Apps: smallSpec, Policy: "linux", Seed: cell})
				if err != nil {
					t.Fatal(err)
				}
				owner := 0
				if p.gw.route(key)[0].addr == p.backends[1].URL {
					owner = 1
				}
				send := func() parityOutcome { return p.send(t, cell, sweep) }
				if tc.setup != nil {
					tc.setup(t, p, owner, send)
				}
				got[k] = send()
				if got[k].status == http.StatusOK {
					// Every fault sits at the owner: the other backend serves.
					if want := strings.TrimPrefix(p.backends[1-owner].URL, "http://"); got[k].backend != want {
						t.Errorf("sweep=%t served by %q, want the non-owner %q", sweep, got[k].backend, want)
					}
					got[k].backend = ""
				}
			}
			if got[0] != got[1] {
				t.Errorf("simulate %+v, sweep %+v", got[0], got[1])
			}
			if got[0] != tc.want {
				t.Errorf("simulate %+v, want %+v", got[0], tc.want)
			}
		})
	}
}

// parityCluster is two real servers behind a gateway whose backend
// client runs through a chaos transport. A flaky backend answers every
// request with 503.
type parityCluster struct {
	gw       *Gateway
	ts       *httptest.Server
	backends []*httptest.Server
	flaky    [2]atomic.Bool
}

func newParityCluster(t *testing.T, cfg Config, cc chaos.Config) *parityCluster {
	t.Helper()
	p := &parityCluster{}
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{Workers: 2})
		flaky := &p.flaky[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if flaky.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			s.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		p.backends = append(p.backends, ts)
		cfg.Backends = append(cfg.Backends, ts.URL)
	}
	var inj *chaos.Injector
	if cc.Enabled() {
		var err error
		if inj, err = chaos.New(cc); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Client = &http.Client{Transport: &chaos.Transport{Inj: inj}}
	cfg.ProbeInterval = -1
	cfg.HedgeDelayMin = -1
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.gw = gw
	p.ts = httptest.NewServer(gw)
	t.Cleanup(func() {
		p.ts.Close()
		gw.Close()
	})
	return p
}

// send posts one cell to the gateway as a simulate or a one-cell sweep
// and reports the outcome with the counters it moved.
func (p *parityCluster) send(t *testing.T, seed int, sweep bool) parityOutcome {
	t.Helper()
	m := p.gw.metrics
	f0, d0, e0 := m.failovers.Load(), m.digestMismatches.Load(), p.gw.budget.exhaustedTotal.Load()
	var o parityOutcome
	if sweep {
		resp, err := http.Post(p.ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"cells":[`+cellBody(seed)+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		lines := readSweepLines(t, resp.Body)
		resp.Body.Close()
		if len(lines) != 1 {
			t.Fatalf("one-cell sweep returned %d lines", len(lines))
		}
		o.status, o.backend = lines[0].Status, strings.TrimPrefix(lines[0].Backend, "http://")
	} else {
		resp, _ := post(t, p.ts.URL, "/v1/simulate", cellBody(seed))
		o.status, o.backend = resp.StatusCode, resp.Header.Get("X-Backend")
	}
	o.failovers = m.failovers.Load() - f0
	o.digestMismatches = m.digestMismatches.Load() - d0
	o.exhaustedInc = p.gw.budget.exhaustedTotal.Load() - e0
	return o
}
