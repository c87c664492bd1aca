// Package server is the simulation-as-a-service front end: a
// JSON-over-HTTP API that runs workload cells on a shared bounded
// runner pool and serves their results with the disciplines of a real
// inference server — bounded admission with backpressure (429 +
// Retry-After instead of unbounded queueing), per-request deadlines
// via context, an exact-key result cache over canonicalized requests
// (identical request ⇒ byte-identical body), health and Prometheus
// metrics endpoints, and graceful drain.
//
// The request shape matches the system: the paper's evaluation is a
// grid of independent, deterministic cells, so every response is a
// pure function of its canonical request and caching whole bodies is
// sound. Endpoints:
//
//	POST /v1/simulate  — run (or replay) one cell; see Request/Response
//	POST /v1/sweep     — run a batch of cells, streaming NDJSON lines
//	                     in completion order (see sweep.go)
//	GET  /healthz      — liveness plus queue/pool/cache gauges
//	GET  /metrics      — Prometheus text exposition
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"busaware/internal/digest"
	"busaware/internal/prom"
	"busaware/internal/runner"
	"busaware/internal/sim"
	"busaware/internal/store"
	"busaware/internal/trace"
)

// Config sizes the server. The zero value is serviceable: GOMAXPROCS
// workers, a 2x-workers admission queue, the default cache, a 60s
// request deadline and a 1s Retry-After hint.
type Config struct {
	// Workers bounds the simulation pool (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-not-running requests
	// (0 = 2x workers). Beyond it the server sheds with 429.
	QueueDepth int
	// CacheSize bounds the memory tier (0 = DefaultCacheSize).
	CacheSize int
	// RequestTimeout is the per-request deadline, queue wait included
	// (0 = 60s). Expiry yields 504.
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses
	// (0 = 1s).
	RetryAfter time.Duration
	// SimDelay adds an artificial latency to every cell before the
	// simulator runs (0 = none). Real cells simulate in single-digit
	// milliseconds, too fast for overload to be observable on small
	// machines; a deliberate delay stands in for expensive cells so
	// backpressure and drain behaviour can be demonstrated
	// deterministically (the CI overload smoke and smpload demos).
	SimDelay time.Duration
	// TimelineQuanta is the per-run telemetry window span in quanta
	// (0 = timeline.DefaultQuantaPerWindow). Smaller windows stream
	// sooner; the CI smoke uses a small span so even short cells seal
	// windows mid-run.
	TimelineQuanta int
	// TimelineWindows bounds each run's retained window ring (0 = 256).
	// Older windows fold into the run summary, keeping memory bounded
	// at millions of quanta.
	TimelineWindows int
	// Engine selects the simulation core for every cell the server
	// runs: the quantum-stepped reference loop (zero value), the
	// event-driven leaping engine, or shadow mode, which runs both and
	// fails the request on any divergence. Responses are identical
	// under all three, so the cache key deliberately excludes it.
	Engine sim.EngineKind
	// Store is the persistent result store the server puts its memory
	// tier in front of (nil = memory only). A memory miss falls through
	// to the store's disk and shared tiers before computing, and every
	// freshly rendered body is written through to all tiers, so warm
	// state survives restarts and is shareable across backends.
	Store *store.Store
}

// DefaultCacheSize bounds the memory tier. A cached entry is one
// rendered response body; the evaluation grids the daemon exists to
// serve (every figure bar of the paper, times policies and seeds) are
// a few hundred distinct cells, so this default keeps a whole sweep
// resident.
const DefaultCacheSize = 256

// CacheStats is a point-in-time snapshot of the memory tier.
type CacheStats = store.TierStats

// Server handles the simulation API. Create with New, serve via
// http.Server, and Close when done to release the pool.
type Server struct {
	cfg     Config
	pool    *runner.Pool
	cache   *store.Cache
	metrics *metrics
	feed    *timelineFeed
	mux     *http.ServeMux

	// testRunHook, when non-nil, runs inside every simulation cell
	// before the simulator starts — the test seam for holding workers
	// busy to exercise backpressure and deadlines.
	testRunHook func()
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	s := &Server{
		cfg:     cfg,
		pool:    runner.NewPool(cfg.Workers, cfg.QueueDepth),
		cache:   store.NewCache(cfg.CacheSize, cfg.Store),
		metrics: newMetrics(),
		feed:    newTimelineFeed(),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/timeline", s.handleTimeline)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/", NotFound)
	return s
}

// ServeHTTP dispatches to the API endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops admissions and waits for cells already admitted to
// finish. Call after http.Server.Shutdown has stopped new connections;
// together they are the SIGTERM drain path.
func (s *Server) Close() { s.pool.Close() }

// CacheStats exposes the memory tier's counters (for healthz, tests
// and the load driver's sanity checks).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats().Memory }

// StoreStats exposes every tier's counters (the persistent tiers' are
// zero when no store is configured).
func (s *Server) StoreStats() store.Stats { return s.cache.Stats() }

// MaxBodyBytes caps /v1/simulate request bodies; specs are short
// strings, so 1 MiB is generous.
const MaxBodyBytes = 1 << 20

// WriteError writes the JSON error envelope every refusal carries,
// from this server and from the gateway in front of it: a bad request,
// a wrong method, an unknown path, a shed or an expired deadline alike.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

// WriteJSON writes v as a compact JSON body with a trailing newline,
// for every JSON answer either daemon gives outside the cell bodies.
// Its callers pass their own plain structs, which always marshal.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, _ := json.Marshal(v)
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// NotFound answers a path no endpoint serves.
func NotFound(w http.ResponseWriter, r *http.Request) {
	WriteError(w, http.StatusNotFound, "no such endpoint: "+r.URL.Path)
}

// DecodeRequest strictly decodes one /v1/simulate body: unknown fields
// are rejected. The gateway decodes with it too, so it never forwards
// a request the backend would reject, nor rejects one it would accept.
func DecodeRequest(r io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("bad request body: %v", err)
	}
	return req, nil
}

func (s *Server) error(w http.ResponseWriter, started time.Time, code int, msg string) {
	WriteError(w, code, msg)
	s.metrics.observe(code, time.Since(started))
}

// The two endpoints share one cell pipeline: admit checks the
// propagated deadline, lookup walks the tiers, and compute runs a miss
// and writes its body through every tier. The handlers keep only what
// the endpoints mean differently — /v1/simulate sheds with 429 and
// bounds its wait by RequestTimeout, /v1/sweep throttles itself and
// coalesces duplicate cells.

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.error(w, started, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.error(w, started, http.StatusBadRequest, err.Error())
		return
	}
	c, err := canon(req)
	if err != nil {
		s.error(w, started, http.StatusBadRequest, err.Error())
		return
	}
	deadline, ok := s.admit(w, r, started)
	if !ok {
		return
	}
	if body, cacheState, ok := s.lookup(c.Key); ok {
		s.write(w, started, body, cacheState)
		return
	}

	// Admission: refuse rather than queue without bound. The client is
	// told when to come back; smpload counts these as shed, not failed.
	done := make(chan computed, 1)
	if !s.compute(c, deadline, done) {
		w.Header().Set("Retry-After",
			strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		s.error(w, started, http.StatusTooManyRequests, "simulation queue full")
		return
	}

	// The deadline covers queue wait plus execution; the client closing
	// its connection cancels too. A cell finishing after we gave up is
	// still written through every tier by its forwarder, so the retry
	// the 504/Retry-After told the client to make is a hit, not a
	// recompute.
	timeout := s.cfg.RequestTimeout
	if !deadline.IsZero() {
		if until := time.Until(deadline); until < timeout {
			timeout = until
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	select {
	case <-ctx.Done():
		go func() {
			if d := <-done; d.err == nil {
				s.metrics.lateCached.Add(1)
			}
		}()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.error(w, started, http.StatusGatewayTimeout, "deadline exceeded")
		} else {
			// Client went away; nothing to write, but account for it.
			s.metrics.observe(499, time.Since(started))
		}
	case d := <-done:
		if d.err != nil {
			s.error(w, started, d.status(), d.err.Error())
			return
		}
		s.write(w, started, d.body, "miss")
	}
}

// admit parses the propagated deadline and sheds a request whose
// deadline has already passed: the requester provably gave up, so no
// tier lookup or pool slot is spent writing to nobody. False means the
// error response has been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, started time.Time) (time.Time, bool) {
	deadline, err := ParseDeadline(r.Header)
	if err != nil {
		s.error(w, started, http.StatusBadRequest, err.Error())
		return deadline, false
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		s.metrics.deadlineShed.Inc("admission")
		s.error(w, started, http.StatusGatewayTimeout, "deadline already expired")
		return deadline, false
	}
	return deadline, true
}

// lookup answers key from the tiers, labelled with the one that held
// it: "hit" for memory, which replays the byte-identical body of the
// key's first computation; "hit-t2" or "hit-t3" for a body computed
// before the last restart or by any backend in the fleet.
func (s *Server) lookup(key string) ([]byte, string, bool) {
	body, tier, ok := s.cache.Get(key)
	if ok && tier != store.TierMemory {
		return body, "hit-t" + tier.String(), true
	}
	return body, "hit", ok
}

// computed is a finished cell: its rendered body, already written
// through every tier, or why it has none.
type computed struct {
	c    *cell
	body []byte
	err  error
}

// status maps a failed cell to its HTTP status: 504 for a cell shed at
// dequeue on its expired deadline, 500 otherwise.
func (d computed) status() int {
	if errors.Is(d.err, errDeadlineShed) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// compute submits c to the pool; false means the queue is full. The
// worker sheds the cell if its non-zero deadline passed while it
// waited in the queue; otherwise it runs the cell, which builds its
// apps and scheduler there. Every run records telemetry into its own
// bounded collector — not just opted-in ones — so the live
// /v1/timeline feed sees all traffic; recording is allocation-free per
// quantum, so this costs nothing the bench gate would notice. The
// cell's forwarder goroutine renders the result and writes it through
// every tier before delivering it on done, so the computation is spent
// once even when its requester has stopped waiting. done must have
// room for the delivery.
func (s *Server) compute(c *cell, deadline time.Time, done chan<- computed) bool {
	hook, delay := s.testRunHook, s.cfg.SimDelay
	out, ok := s.pool.TrySubmit(runner.Cell{Label: c.Key, Run: func() (sim.Result, error) {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			s.metrics.deadlineShed.Inc("dequeue")
			return sim.Result{}, errDeadlineShed
		}
		if hook != nil {
			hook()
		}
		time.Sleep(delay)
		c.run.Config.Engine = s.cfg.Engine
		c.run.Config.Timeline = s.newRunCollector(c.Key)
		if c.trace {
			c.run.Config.Trace = &trace.Timeline{NumCPUs: c.run.Config.Machine.NumCPUs}
		}
		return c.run.Simulate()
	}})
	if !ok {
		return false
	}
	go func() {
		body, err := renderBody(c, <-out)
		if err == nil {
			s.cache.Put(c.Key, body)
		}
		done <- computed{c: c, body: body, err: err}
	}()
	return true
}

// renderBody converts a finished cell into the exact wire bytes the
// cache stores and every replay serves. The telemetry collector rides
// on every run for the live feed, but windows enter the body — and so
// the cache — only when the request opted in, and the key encodes that
// choice, so replays stay byte-identical either way.
func renderBody(c *cell, res runner.PoolResult) ([]byte, error) {
	if res.Err != nil {
		return nil, res.Err
	}
	col := c.run.Config.Timeline
	if !c.timeline {
		col = nil
	}
	resp, err := NewResponse(res.Result, c.run.Config.Trace, col)
	if err != nil {
		return nil, err
	}
	return resp.MarshalBody()
}

// write sends a 200 with the exact cached/rendered body bytes, stamped
// with their integrity digest so every hop downstream can prove the
// bytes arrived intact.
func (s *Server) write(w http.ResponseWriter, started time.Time, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set(digest.Header, digest.Sum(body))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	s.metrics.observe(http.StatusOK, time.Since(started))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.cache.Stats()
	WriteJSON(w, http.StatusOK, struct {
		Status       string `json:"status"`
		QueueDepth   int    `json:"queue_depth"`
		QueueCap     int    `json:"queue_capacity"`
		Workers      int    `json:"workers"`
		Busy         int    `json:"busy"`
		Completed    int64  `json:"completed"`
		CacheSize    int    `json:"cache_entries"`
		CacheHits    uint64 `json:"cache_hits"`
		StoreEntries int    `json:"store_entries"`
		StoreHits    uint64 `json:"store_hits"`
	}{
		Status:       "ok",
		QueueDepth:   s.pool.QueueDepth(),
		QueueCap:     s.pool.QueueCap(),
		Workers:      s.pool.Workers(),
		Busy:         s.pool.Busy(),
		Completed:    s.pool.Completed(),
		CacheSize:    st.Memory.Entries,
		CacheHits:    st.Memory.Hits,
		StoreEntries: st.Disk.Entries,
		StoreHits:    st.Disk.Hits + st.Shared.Hits,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", prom.ContentType)
	s.metrics.write(w, s)
}
