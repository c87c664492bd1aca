// Package gateway is the horizontal scale-out layer over smpsimd: an
// HTTP front end that shards /v1/simulate and /v1/sweep requests
// across N backends by consistent hash of the canonical request key.
// Sharding by the same key the backends' response caches use means
// every repetition of a cell lands on the shard that already computed
// it, so per-backend caches stay hot instead of each backend slowly
// accumulating a lukewarm copy of the whole working set.
//
// Every request, a /v1/simulate call as much as a /v1/sweep batch,
// runs through one dispatch machine: the per-request cell ledger
// (ledger.go). It treats the network between the gateway and the
// backends as hostile, not merely unreliable:
//
//   - A per-backend circuit breaker opens on consecutive failures or a
//     high recent error rate and recovers through half-open trials;
//     hard evidence of a dead process (dial refused) still ejects the
//     backend immediately, and a jittered, backoff-aware /healthz
//     prober re-admits it (breaker.go, probe.go).
//   - Failover, 429 waits and hedges all draw on a global retry budget
//     so retries cannot amplify an overload; once the budget is spent,
//     requests fail fast with 503 and an "X-Retry-Budget: exhausted"
//     marker (budget.go).
//   - A straggling attempt is hedged to the next ring node after a
//     p99-based delay; the first answer wins, the loser is hung up,
//     and when both complete their bytes are cross-checked (hedge.go).
//   - Response bodies carry FNV-64a integrity digests end to end; the
//     gateway verifies every backend body and treats corrupt bytes as
//     a retryable failure, never returning them to the client.
//   - Each backend attempt is bounded by AttemptTimeout and stamped
//     with an absolute X-Deadline-Ms so backends can shed work whose
//     requester has already given up.
//
// Requests the gateway can prove invalid (bad spec, unknown policy)
// are rejected locally without spending a backend round trip.
//
// Endpoints mirror smpsimd: POST /v1/simulate, POST /v1/sweep,
// GET /v1/timeline (backend telemetry streams multiplexed, summaries
// merged — see timeline.go), GET /healthz, GET /metrics (health,
// breaker, budget, hedge and digest counters under the smpgw_
// namespace).
package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"busaware/internal/digest"
	"busaware/internal/faults"
	"busaware/internal/prom"
	"busaware/internal/server"
)

// Config wires a Gateway. Backends is required; everything else has a
// serviceable zero value.
type Config struct {
	// Backends are the smpsimd base URLs, e.g.
	// "http://127.0.0.1:8081". At least one is required.
	Backends []string
	// Replicas is the virtual-node count per backend on the hash ring
	// (0 = 128).
	Replicas int
	// ProbeInterval spaces the /healthz probes; the actual delay is
	// jittered in [0.5, 1.5) × interval (0 = 2s, negative = probing
	// disabled; tests drive probes explicitly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (0 = 1s).
	ProbeTimeout time.Duration
	// ProbeFailures is how many consecutive probe failures eject a
	// backend (0 = 2). Re-admission takes a single success; a backend
	// that keeps failing is re-probed with exponential backoff.
	ProbeFailures int
	// Retry429 is how many times a 429 from the shard owner is retried
	// (honoring Retry-After) before being passed to the client (0 = 2,
	// negative = no retries).
	Retry429 int
	// MaxRetryAfter caps how long one Retry-After hint is honored
	// (0 = 5s).
	MaxRetryAfter time.Duration
	// BreakerFailures is the consecutive-failure run that opens a
	// backend's circuit breaker (0 = 5, negative = breaker disabled).
	BreakerFailures int
	// BreakerCooldown is the open → half-open trial delay (0 = 2s).
	BreakerCooldown time.Duration
	// RetryBudgetRatio caps extra backend attempts (failover, 429
	// retries, hedges) at ratio × recent request volume (0 = 0.5,
	// negative = unlimited).
	RetryBudgetRatio float64
	// RetryBudgetFloor is the minimum retry allowance per accounting
	// window, so a quiet gateway can still retry (0 = 16).
	RetryBudgetFloor int
	// AttemptTimeout bounds one backend attempt — and serves as the
	// idle watchdog on sweep streams — so a blackholed connection
	// cannot pin a request forever (0 = 15s, negative = unbounded).
	AttemptTimeout time.Duration
	// HedgeDelayMin floors the hedge delay; the effective delay is
	// max(HedgeDelayMin, tracked p99) (0 = 250ms, negative = hedging
	// disabled).
	HedgeDelayMin time.Duration
	// Client overrides the proxy HTTP client (nil = keep-alive pooled
	// transport, no global timeout — attempts carry their own).
	Client *http.Client
	// Sleep substitutes the retry clock, so tests assert backoff
	// without real sleeping.
	Sleep faults.Sleeper
}

// backend is the gateway's view of one smpsimd process.
type backend struct {
	addr string

	healthy  atomic.Bool
	inflight atomic.Int64
	breaker  *breaker

	// shed counts 429s received from this backend; failovers counts
	// requests moved off it after failures.
	shed      atomic.Uint64
	failovers atomic.Uint64

	// probeFails/probeSkip are touched only by the prober goroutine.
	probeFails int
	probeSkip  int
}

// cluster is one immutable snapshot of the routing membership: the
// consistent-hash ring and the backend structs it indexes, always in
// step with each other. Readers load the current snapshot atomically;
// membership changes build a new one under clusterMu and swap it in,
// so every in-flight request keeps a coherent ring view while the
// cluster resizes. Backend structs are reused across snapshots (same
// address ⇒ same pointer), so breaker state, inflight gauges and
// probe bookkeeping survive rebuilds and in-flight attempts against a
// just-removed backend account correctly.
type membership struct {
	ring     *ring
	backends []*backend
}

// Gateway shards requests across backends. Create with New, serve via
// http.Server, Close to stop the prober. Membership is elastic:
// AddBackend/RemoveBackend (or POST /admin/backends) resize the ring
// at runtime.
type Gateway struct {
	cfg     Config
	client  *http.Client
	probec  *http.Client
	sleep   faults.Sleeper
	metrics *gwMetrics
	budget  *retryBudget
	tracker *latencyTracker
	mux     *http.ServeMux

	cluster   atomic.Pointer[membership]
	clusterMu sync.Mutex // serializes membership changes

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a Gateway over cfg.Backends and starts the health prober
// (unless ProbeInterval < 0). Backends start healthy — optimism lets
// the gateway serve before the first probe round; a dead backend is
// ejected by its first failed probe or dial error.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends")
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.ProbeFailures <= 0 {
		cfg.ProbeFailures = 2
	}
	if cfg.Retry429 == 0 {
		cfg.Retry429 = 2
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 5 * time.Second
	}
	if cfg.BreakerFailures == 0 {
		cfg.BreakerFailures = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.RetryBudgetRatio == 0 {
		cfg.RetryBudgetRatio = 0.5
	}
	if cfg.RetryBudgetFloor <= 0 {
		cfg.RetryBudgetFloor = 16
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 15 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
			},
		}
	}
	g := &Gateway{
		cfg:     cfg,
		client:  client,
		probec:  &http.Client{Timeout: cfg.ProbeTimeout},
		sleep:   cfg.Sleep,
		metrics: &gwMetrics{},
		budget:  newRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetFloor),
		tracker: &latencyTracker{},
		mux:     http.NewServeMux(),
		stop:    make(chan struct{}),
	}
	backends := make([]*backend, len(cfg.Backends))
	for i, addr := range cfg.Backends {
		backends[i] = g.newBackend(addr)
	}
	g.cluster.Store(&membership{ring: newRing(cfg.Backends, cfg.Replicas), backends: backends})
	g.mux.HandleFunc("/v1/simulate", g.handleSimulate)
	g.mux.HandleFunc("/v1/sweep", g.handleSweep)
	g.mux.HandleFunc("/v1/timeline", g.handleTimeline)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/admin/backends", g.handleAdminBackends)
	g.mux.HandleFunc("/", server.NotFound)
	interval := cfg.ProbeInterval
	if interval == 0 {
		interval = 2 * time.Second
	}
	if interval > 0 {
		g.wg.Add(1)
		go g.probeLoop(interval)
	}
	return g, nil
}

// ServeHTTP dispatches to the gateway endpoints.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Close stops the health prober. In-flight proxied requests are not
// interrupted.
func (g *Gateway) Close() {
	close(g.stop)
	g.wg.Wait()
}

// newBackend builds one backend struct in its starting state (healthy
// — optimism lets it serve before the first probe round).
func (g *Gateway) newBackend(addr string) *backend {
	b := &backend{
		addr:    addr,
		breaker: newBreaker(g.cfg.BreakerFailures, g.cfg.BreakerCooldown),
	}
	b.healthy.Store(true)
	return b
}

// route returns key's backends in preference order: healthy backends
// whose breaker is ready, then healthy-but-open-breaker ones, then
// the ejected tail. The tail is kept so a request can still be
// attempted when every backend looks bad (the cluster may be healthier
// than the gateway's last look). Empty when every backend has been
// removed from the ring.
func (g *Gateway) route(key string) []*backend {
	c := g.cluster.Load()
	seq := c.ring.sequence(key)
	ordered := make([]*backend, 0, len(seq))
	for _, i := range seq {
		b := c.backends[i]
		if b.healthy.Load() && b.breaker.Ready() {
			ordered = append(ordered, b)
		}
	}
	for _, i := range seq {
		b := c.backends[i]
		if b.healthy.Load() && !b.breaker.Ready() {
			ordered = append(ordered, b)
		}
	}
	for _, i := range seq {
		if !c.backends[i].healthy.Load() {
			ordered = append(ordered, c.backends[i])
		}
	}
	return ordered
}

// reject writes the JSON error envelope and counts the status.
func (g *Gateway) reject(w http.ResponseWriter, code int, msg string) {
	server.WriteError(w, code, msg)
	g.metrics.observe(code)
}

// errDigestMismatch marks a transport-valid response whose bytes
// failed integrity verification.
var errDigestMismatch = errors.New("response digest mismatch")

func (g *Gateway) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		g.reject(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		g.reject(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	// An invalid cell is rejected here, by the backend's own decoding
	// discipline, without spending a backend round trip.
	req, err := server.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		g.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := server.CanonicalKey(req)
	if err != nil {
		g.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline, err := server.ParseDeadline(r.Header)
	if err != nil {
		g.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	g.serve(r, &simulateCall{g: g, w: w, body: body, deadline: deadline}, []string{key})
}

// simulateCall is /v1/simulate's transport and renderer: a one-cell
// ledger whose dispatches post the client's bytes verbatim to a
// backend's /v1/simulate, and whose winning response is relayed as
// the backend sent it.
type simulateCall struct {
	g    *Gateway
	w    http.ResponseWriter
	body []byte
	// deadline is the client-supplied absolute deadline (zero = none).
	deadline time.Time
}

// statusError is a retryable status a backend answered: the attempt
// failed, but when every hop answers alike the last response passes
// through to the client.
type statusError struct{ a *answer }

func (e *statusError) Error() string { return fmt.Sprintf("backend status %d", e.a.status) }

// send runs one attempt to completion: the round trip bounded by
// AttemptTimeout, the same-shard 429 retry honoring Retry-After,
// integrity verification and latency tracking.
func (s *simulateCall) send(ctx context.Context, l *ledger, d *dispatch) error {
	g, b := s.g, d.b
	if at := g.cfg.AttemptTimeout; at > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, at)
		defer cancel()
	}
	for retries := g.cfg.Retry429; ; retries-- {
		started := time.Now()
		resp, err := g.post(ctx, b, "/v1/simulate", s.body, s.deadline)
		if err != nil {
			return err
		}
		rb, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			b.shed.Add(1)
			if retries > 0 && g.budget.TryRetry(1) {
				g.metrics.retries.Add(1)
				if err := g.pause(ctx, g.retryAfter(resp)); err != nil {
					return err
				}
				continue
			}
			// Reachable, just saturated: the 429 is the answer.
		}
		a := &answer{status: resp.StatusCode, b: b, resp: resp, body: rb}
		if a.status == http.StatusOK {
			if a.sum = resp.Header.Get(digest.Header); !digest.Verify(a.sum, rb) {
				g.metrics.digestMismatches.Add(1)
				return fmt.Errorf("%s: %w", b.addr, errDigestMismatch)
			}
			if a.sum == "" {
				a.sum = digest.Sum(rb)
			}
			g.tracker.record(time.Since(started))
		}
		if retryableStatus(a.status) {
			return &statusError{a}
		}
		l.answer(d, 0, a)
		return nil
	}
}

// write relays the winning backend response.
func (s *simulateCall) write(_ int, a *answer) {
	h := s.w.Header()
	h.Set("Content-Type", a.resp.Header.Get("Content-Type"))
	for _, k := range []string{"X-Cache", "Retry-After", digest.Header} {
		if v := a.resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("X-Backend", a.resp.Request.URL.Host)
	h.Set("Content-Length", strconv.Itoa(len(a.body)))
	s.w.WriteHeader(a.status)
	s.w.Write(a.body)
	s.g.metrics.observe(a.status)
}

// fail answers a cell no backend answered usably: a spent retry budget
// fails fast with a distinct marker, a retryable 5xx every hop agreed
// on passes through, and transport-level death surfaces as 502.
func (s *simulateCall) fail(_ int, status int, cause error) {
	var se *statusError
	switch {
	case status == http.StatusServiceUnavailable:
		s.w.Header().Set("X-Retry-Budget", "exhausted")
		s.g.reject(s.w, status, fmt.Sprintf("retry budget exhausted (last backend error: %v)", cause))
	case errors.As(cause, &se):
		s.write(0, se.a)
	case errors.Is(cause, errNoBackends):
		s.g.reject(s.w, status, cause.Error())
	default:
		s.g.reject(s.w, status, fmt.Sprintf("backend unreachable: %v", cause))
	}
}

// retryableStatus marks backend responses that another backend might
// answer better: internal errors and (possibly injected) gateway-class
// 5xx. 504 passes through — the deadline is the client's, and a retry
// would bust it anyway.
func retryableStatus(code int) bool {
	return code == http.StatusInternalServerError ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// isDialError reports whether err is a failure to even open a
// connection — the hard evidence of a dead process that justifies
// immediate ejection, as opposed to mid-stream failures that feed the
// breaker.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// post sends one backend request through the gateway's client. The
// downstream deadline header is the earlier of the client's deadline
// and ctx's, so backends can shed work whose requester has already
// given up.
func (g *Gateway) post(ctx context.Context, b *backend, path string, body []byte, deadline time.Time) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Disable net/http's transparent replay of requests that die on
	// reused connections: every retry must flow through the budget.
	req.GetBody = nil
	if cd, ok := ctx.Deadline(); ok && (deadline.IsZero() || cd.Before(deadline)) {
		deadline = cd
	}
	if !deadline.IsZero() {
		req.Header.Set(server.DeadlineHeader, strconv.FormatInt(deadline.UnixMilli(), 10))
	}
	return g.client.Do(req)
}

// pause waits d on the retry clock, or until ctx ends.
func (g *Gateway) pause(ctx context.Context, d time.Duration) error {
	if g.sleep != nil {
		g.sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfter extracts the backend's backoff hint, defaulting to 1s and
// capping at MaxRetryAfter.
func (g *Gateway) retryAfter(resp *http.Response) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > g.cfg.MaxRetryAfter {
		d = g.cfg.MaxRetryAfter
	}
	return d
}

// Healthy reports how many backends are currently admitted.
func (g *Gateway) Healthy() int {
	n := 0
	for _, b := range g.cluster.Load().backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		server.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type backendHealth struct {
		Addr      string `json:"addr"`
		Healthy   bool   `json:"healthy"`
		Breaker   string `json:"breaker"`
		Inflight  int64  `json:"inflight"`
		Shed      uint64 `json:"shed"`
		Failovers uint64 `json:"failovers"`
	}
	out := struct {
		Status   string          `json:"status"`
		Backends []backendHealth `json:"backends"`
	}{Status: "ok"}
	for _, b := range g.cluster.Load().backends {
		out.Backends = append(out.Backends, backendHealth{
			Addr:      b.addr,
			Healthy:   b.healthy.Load(),
			Breaker:   breakerStateName(b.breaker.State()),
			Inflight:  b.inflight.Load(),
			Shed:      b.shed.Load(),
			Failovers: b.failovers.Load(),
		})
	}
	if g.Healthy() == 0 {
		out.Status = "degraded"
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// breakerStateName renders a breaker state for humans.
func breakerStateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		server.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", prom.ContentType)
	g.metrics.write(w, g.cluster.Load().backends, g.budget)
}
