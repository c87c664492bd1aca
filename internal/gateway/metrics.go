package gateway

import (
	"io"
	"sync/atomic"

	"busaware/internal/prom"
)

// gwMetrics holds the gateway-side counters for /metrics. Per-backend
// gauges are read live from the backend structs at scrape time, and
// internal/prom owns the format, as it does for the backends'.
type gwMetrics struct {
	codes prom.Counts[int]

	// failovers counts requests moved to another ring node after a
	// connection error; retries counts 429s absorbed by waiting out
	// Retry-After; sweepCells counts per-cell sweep lines forwarded.
	failovers  atomic.Uint64
	retries    atomic.Uint64
	sweepCells atomic.Uint64

	// Hedging: hedges launched, which side won a hedged race, and how
	// often a completed hedge loser's bytes diverged from the winner's
	// (should stay 0 — backends replay cached bodies byte-identically).
	hedgesLaunched   atomic.Uint64
	hedgeWins        atomic.Uint64
	hedgePrimaryWins atomic.Uint64
	hedgeMismatches  atomic.Uint64

	// digestMismatches counts backend responses whose body failed
	// X-Content-Digest verification and were retried instead of served.
	digestMismatches atomic.Uint64

	// ringAdds/ringRemoves count runtime membership changes.
	ringAdds    atomic.Uint64
	ringRemoves atomic.Uint64
}

// observe records one finished gateway request by status code.
func (m *gwMetrics) observe(code int) { m.codes.Inc(code) }

// write renders the exposition: request counters plus live per-backend
// gauges, breaker states and the retry-budget ledger.
func (m *gwMetrics) write(w io.Writer, backends []*backend, budget *retryBudget) {
	p := prom.NewWriter(w)
	m.codes.Write(p, "smpgw_requests_total", "Gateway requests finished, by HTTP status code.", "code")
	p.Counter("smpgw_failovers_total", "Requests failed over to the next ring node after a backend failure.", float64(m.failovers.Load()))
	p.Counter("smpgw_retries_total", "Backend 429s absorbed by honoring Retry-After.", float64(m.retries.Load()))
	p.Counter("smpgw_sweep_cells_total", "Sweep cells forwarded through the gateway.", float64(m.sweepCells.Load()))
	p.Counter("smpgw_retry_budget_requests_total", "Client-facing work units credited to the retry budget.", float64(budget.requestsTotal.Load()))
	p.Counter("smpgw_retry_budget_retries_total", "Extra backend attempts (failover, 429 retry, hedge) granted by the retry budget.", float64(budget.retriesTotal.Load()))
	p.Counter("smpgw_retry_budget_exhausted_total", "Retry attempts refused because the budget was spent.", float64(budget.exhaustedTotal.Load()))

	f := p.Family("smpgw_hedges_total", "counter", "Hedged-request events by outcome.")
	f.Sample(float64(m.hedgesLaunched.Load()), "outcome", "launched")
	f.Sample(float64(m.hedgeWins.Load()), "outcome", "hedge_win")
	f.Sample(float64(m.hedgePrimaryWins.Load()), "outcome", "primary_win")
	f.Sample(float64(m.hedgeMismatches.Load()), "outcome", "mismatch")
	p.Counter("smpgw_digest_mismatch_total", "Backend responses rejected for failing X-Content-Digest verification.", float64(m.digestMismatches.Load()))

	p.Gauge("smpgw_ring_backends", "Backends currently on the consistent-hash ring.", float64(len(backends)))
	f = p.Family("smpgw_ring_changes_total", "counter", "Runtime ring membership changes, by operation.")
	f.Sample(float64(m.ringAdds.Load()), "op", "add")
	f.Sample(float64(m.ringRemoves.Load()), "op", "remove")

	f = p.Family("smpgw_backend_healthy", "gauge", "Backend admitted for routing (1) or ejected (0).")
	for _, b := range backends {
		h := 0.0
		if b.healthy.Load() {
			h = 1
		}
		f.Sample(h, "backend", b.addr)
	}
	f = p.Family("smpgw_breaker_state", "gauge", "Circuit-breaker state per backend (0 closed, 1 half-open, 2 open).")
	for _, b := range backends {
		f.Sample(float64(b.breaker.State()), "backend", b.addr)
	}
	f = p.Family("smpgw_breaker_transitions_total", "counter", "Circuit-breaker transitions per backend, by destination state.")
	for _, b := range backends {
		opened, reclosed := b.breaker.Transitions()
		f.Sample(float64(opened), "backend", b.addr, "to", "open")
		f.Sample(float64(reclosed), "backend", b.addr, "to", "closed")
	}
	f = p.Family("smpgw_backend_inflight", "gauge", "Proxied requests currently outstanding against the backend.")
	for _, b := range backends {
		f.Sample(float64(b.inflight.Load()), "backend", b.addr)
	}
	f = p.Family("smpgw_backend_shed_total", "counter", "429 responses received from the backend.")
	for _, b := range backends {
		f.Sample(float64(b.shed.Load()), "backend", b.addr)
	}
	f = p.Family("smpgw_backend_failovers_total", "counter", "Requests moved off the backend after failures.")
	for _, b := range backends {
		f.Sample(float64(b.failovers.Load()), "backend", b.addr)
	}
}
