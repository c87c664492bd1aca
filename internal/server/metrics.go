package server

import (
	"io"
	"sync/atomic"
	"time"

	"busaware/internal/prom"
	"busaware/internal/store"
)

// metrics holds the serving-side counters exposed on /metrics: request
// counts by status code, one latency histogram and the sweep and
// deadline tallies. Queue, pool, feed, cache and store gauges are read
// live from the Server at scrape time; internal/prom owns the format.
type metrics struct {
	codes prom.Counts[int]
	// latency buckets straddle both the cache-hit path
	// (sub-millisecond) and cold heavy cells (seconds).
	latency *prom.Histogram

	// lateCached counts cells whose requester gave up (504/disconnect)
	// but whose result was still written through every tier, so the
	// retry is a hit.
	lateCached atomic.Uint64

	// sweepCells counts per-cell sweep outcomes by label: "hit",
	// "hit-t2", "hit-t3", "miss", "error".
	sweepCells prom.Counts[string]

	// deadlineShed counts work dropped because the propagated
	// X-Deadline-Ms had already passed, by stage: "admission" (refused
	// before entering the pool) or "dequeue" (aged out in the queue).
	deadlineShed prom.Counts[string]
}

func newMetrics() *metrics {
	return &metrics{latency: prom.NewHistogram(0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10)}
}

// observe records one finished request.
func (m *metrics) observe(code int, d time.Duration) {
	m.codes.Inc(code)
	m.latency.Observe(d.Seconds())
}

// observeSweepCell records one streamed sweep line by outcome.
func (m *metrics) observeSweepCell(line SweepCellResult) {
	outcome := "error"
	if line.Status == 200 {
		outcome = line.Cache // "hit", "hit-t2", "hit-t3" or "miss"
	}
	m.sweepCells.Inc(outcome)
}

// write renders the full exposition: the counters above plus live
// gauges from srv.
func (m *metrics) write(w io.Writer, srv *Server) {
	p := prom.NewWriter(w)
	m.codes.Write(p, "smpsimd_requests_total", "Requests finished, by HTTP status code.", "code")
	m.latency.Write(p, "smpsimd_request_duration_seconds", "Request latency, admission to last byte.")

	pool := srv.pool
	busy, workers := pool.Busy(), pool.Workers()
	util := 0.0
	if workers > 0 {
		util = float64(busy) / float64(workers)
	}
	p.Gauge("smpsimd_queue_depth", "Cells admitted but not yet running.", float64(pool.QueueDepth()))
	p.Gauge("smpsimd_queue_capacity", "Admission queue bound.", float64(pool.QueueCap()))
	p.Gauge("smpsimd_pool_workers", "Simulation pool size.", float64(workers))
	p.Gauge("smpsimd_pool_busy", "Workers currently executing a cell.", float64(busy))
	p.Gauge("smpsimd_pool_utilization", "Busy workers over pool size.", util)
	p.Counter("smpsimd_cells_completed_total", "Simulation cells finished by the pool.", float64(pool.Completed()))
	p.Counter("smpsimd_late_cached_total", "Timed-out cells whose result was still written through every tier.", float64(m.lateCached.Load()))
	m.sweepCells.Write(p, "smpsimd_sweep_cells_total", "Sweep cells streamed, by outcome.", "outcome")
	m.deadlineShed.Write(p, "smpsimd_deadline_shed_total", "Work dropped on an expired propagated deadline, by stage.", "stage")

	tl, windows, dropped, subs := srv.feed.snapshot()
	p.Counter("smpsimd_timeline_windows_total", "Telemetry windows sealed and published to the feed.", float64(windows))
	p.Counter("smpsimd_timeline_dropped_total", "Feed events dropped on slow subscribers.", float64(dropped))
	p.Gauge("smpsimd_timeline_subscribers", "Live /v1/timeline streams.", float64(subs))
	p.Counter("smpsimd_timeline_saturated_quanta_total", "Quanta whose bus utilization crossed the saturation threshold.", float64(tl.Saturated))

	ss := srv.cache.Stats()
	cs := ss.Memory
	p.Counter("smpsimd_cache_hits_total", "Response cache hits.", float64(cs.Hits))
	p.Counter("smpsimd_cache_misses_total", "Response cache misses.", float64(cs.Misses))
	p.Counter("smpsimd_cache_evictions_total", "Response cache LRU evictions.", float64(cs.Evictions))
	p.Gauge("smpsimd_cache_entries", "Response cache resident entries.", float64(cs.Entries))
	p.Gauge("smpsimd_cache_hit_ratio", "Hits over lookups since start.", cs.HitRate())

	// Persistent store tiers 2 (local disk) and 3 (shared). Tier 1 is
	// the in-memory cache above; it appears here only for the conflict
	// counter, which spans all tiers because the byte-identity check is
	// one invariant.
	perTier := func(name, typ, help string, v func(store.TierStats) float64) {
		f := p.Family(name, typ, help)
		f.Sample(v(ss.Disk), "tier", "2")
		f.Sample(v(ss.Shared), "tier", "3")
	}
	perTier("smpsimd_store_hits_total", "counter", "Persistent store hits, by tier (2=local disk, 3=shared).",
		func(t store.TierStats) float64 { return float64(t.Hits) })
	perTier("smpsimd_store_misses_total", "counter", "Persistent store misses, by tier.",
		func(t store.TierStats) float64 { return float64(t.Misses) })
	perTier("smpsimd_store_verify_failures_total", "counter", "Store entries rejected on read (corrupt/truncated), by tier.",
		func(t store.TierStats) float64 { return float64(t.VerifyFails) })
	perTier("smpsimd_store_puts_total", "counter", "Bodies written to the store, by tier.",
		func(t store.TierStats) float64 { return float64(t.Puts) })
	f := p.Family("smpsimd_store_conflict_total", "counter", "Duplicate puts whose body diverged from the incumbent, by tier (zero unless the byte-identity invariant broke).")
	f.Sample(float64(cs.Conflicts), "tier", "1")
	f.Sample(float64(ss.Disk.Conflicts), "tier", "2")
	f.Sample(float64(ss.Shared.Conflicts), "tier", "3")
	p.Counter("smpsimd_store_evictions_total", "Tier-2 size-bound LRU evictions.", float64(ss.Disk.Evictions))
	p.Gauge("smpsimd_store_bytes", "Tier-2 resident bytes on disk.", float64(ss.Disk.Bytes))
	p.Gauge("smpsimd_store_entries", "Tier-2 resident entries.", float64(ss.Disk.Entries))
	perTier("smpsimd_store_hit_ratio", "gauge", "Store hits over lookups since start, by tier.", store.TierStats.HitRate)
}
