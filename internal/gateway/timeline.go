package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"

	"busaware/internal/server"
	"busaware/internal/timeline"
)

// The gateway's observability plane aggregates the backends': each
// smpsimd publishes sealed telemetry windows on its own GET
// /v1/timeline, and the gateway presents the cluster as one feed.
//
//	GET /v1/timeline            — NDJSON: every healthy backend's live
//	                              stream multiplexed, each line stamped
//	                              with the backend it came from
//	GET /v1/timeline?summary=1  — one JSON TimelineSummary folding all
//	                              backends' merged windows
//
// Stream lines are server.TimelineEvent with Backend set; seq numbers
// are per-backend (disambiguated by the backend field), and arrival
// order across backends is whatever the network delivers — consumers
// needing totals should use ?summary=1, whose merge is order-independent
// by construction (internal/timeline windows are sum-form).
//
// ?backlog and ?max behave like the backend's: backlog is passed
// through to every backend, max bounds the merged line count.

// TimelineSummary is the gateway's ?summary=1 body: the per-backend
// summaries plus their fold. Merge associativity guarantees the fold
// is independent of backend order.
type TimelineSummary struct {
	Windows  int64                    `json:"windows"`
	Dropped  int64                    `json:"dropped"`
	Backends []BackendTimelineSummary `json:"backends"`
	Summary  timeline.Window          `json:"summary"`
}

// BackendTimelineSummary is one backend's contribution.
type BackendTimelineSummary struct {
	Addr    string          `json:"addr"`
	Healthy bool            `json:"healthy"`
	Windows int64           `json:"windows"`
	Summary timeline.Window `json:"summary"`
}

func (g *Gateway) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		g.reject(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	if q.Get("summary") != "" {
		g.timelineSummary(w)
		return
	}
	g.timelineStream(w, r, q)
}

// timelineSummary fans ?summary=1 out to every backend concurrently
// and folds the answers. Unreachable backends contribute nothing (and
// are reported unhealthy); one live backend suffices for a 200.
func (g *Gateway) timelineSummary(w http.ResponseWriter) {
	backends := g.cluster.Load().backends
	per := make([]BackendTimelineSummary, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		per[i] = BackendTimelineSummary{Addr: b.addr}
		if !b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			resp, err := g.client.Get(b.addr + "/v1/timeline?summary=1")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var sum server.TimelineSummary
			if resp.StatusCode != http.StatusOK ||
				json.NewDecoder(resp.Body).Decode(&sum) != nil {
				return
			}
			per[i] = BackendTimelineSummary{
				Addr:    b.addr,
				Healthy: true,
				Windows: sum.Windows,
				Summary: sum.Summary,
			}
		}(i, b)
	}
	wg.Wait()

	out := TimelineSummary{Backends: per}
	healthy := 0
	for _, p := range per {
		if !p.Healthy {
			continue
		}
		healthy++
		out.Windows += p.Windows
		out.Summary = timeline.Merge(out.Summary, p.Summary)
	}
	if healthy == 0 {
		g.reject(w, http.StatusBadGateway, "no backend answered /v1/timeline")
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
	g.metrics.observe(http.StatusOK)
}

// timelineStream multiplexes every healthy backend's NDJSON stream
// into one, stamping each event with its origin. A backend dropping
// its stream mid-flight just stops contributing; the merged stream
// ends when the client goes away, ?max is reached, or every backend
// stream has closed.
func (g *Gateway) timelineStream(w http.ResponseWriter, r *http.Request, q url.Values) {
	max, err := server.CountParam(q.Get("max"), 0)
	if err != nil {
		g.reject(w, http.StatusBadRequest, fmt.Sprintf("bad max: %v", err))
		return
	}
	path := "/v1/timeline"
	if bl := q.Get("backlog"); bl != "" {
		if _, err := server.CountParam(bl, 0); err != nil {
			g.reject(w, http.StatusBadRequest, fmt.Sprintf("bad backlog: %v", err))
			return
		}
		path += "?backlog=" + bl
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	events := make(chan server.TimelineEvent, 64)
	var wg sync.WaitGroup
	streams := 0
	for _, b := range g.cluster.Load().backends {
		if !b.healthy.Load() {
			continue
		}
		streams++
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			g.relayTimeline(ctx, b, path, events)
		}(b)
	}
	if streams == 0 {
		g.reject(w, http.StatusBadGateway, "no healthy backends")
		return
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	sent := 0
	defer g.metrics.observe(http.StatusOK)
	for {
		select {
		case <-ctx.Done():
			return
		case <-done:
			// Drain events already relayed, then end the stream.
			for {
				select {
				case ev := <-events:
					if !g.emitTimeline(enc, flusher, ev, &sent, max) {
						return
					}
				default:
					return
				}
			}
		case ev := <-events:
			if !g.emitTimeline(enc, flusher, ev, &sent, max) {
				return
			}
		}
	}
}

// emitTimeline writes one merged NDJSON line; false ends the stream.
func (g *Gateway) emitTimeline(enc *json.Encoder, flusher http.Flusher, ev server.TimelineEvent, sent *int, max int) bool {
	if err := enc.Encode(ev); err != nil {
		return false
	}
	if flusher != nil {
		flusher.Flush()
	}
	*sent++
	return max == 0 || *sent < max
}

// relayTimeline reads one backend's NDJSON stream, stamping each event
// with the backend address and forwarding it until the stream or the
// client ends. Lines that fail to decode are skipped — a half-written
// line at disconnect must not poison the merged stream.
func (g *Gateway) relayTimeline(ctx context.Context, b *backend, path string, events chan<- server.TimelineEvent) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+path, nil)
	if err != nil {
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev server.TimelineEvent
		if json.Unmarshal(line, &ev) != nil {
			continue
		}
		ev.Backend = b.addr
		select {
		case events <- ev:
		case <-ctx.Done():
			return
		}
	}
}
