// Command smpload is the closed-loop load driver for smpsimd: N
// concurrent clients each issue requests from a fixed mix back to
// back, and the run's throughput, latency percentiles, status-code
// counts and byte-identity checks are emitted as a JSON artifact
// (smpload's analogue of BENCH_sim.json).
//
// Closed-loop means each client waits for its response before sending
// the next request, so offered load adapts to the server instead of
// piling up — overload then shows up as 429s (counted separately, and
// expected once clients exceed queue + workers), not as timeouts.
//
// The mix is a semicolon-separated list of workload specs in the
// shared -apps grammar, crossed with the -policies list; request i
// always targets entry i mod len(mix). Because the simulator is
// deterministic and smpsimd canonicalizes requests, every repetition
// of a mix entry must return a byte-identical body whether it was
// computed or served from cache; smpload records the first body per
// (entry, seed-variant) and counts any later divergence as a mismatch
// (and exits non-zero). Independently of byte identity, every response
// is checked against its end-to-end integrity digest (X-Content-Digest
// on /v1/simulate, the digest field on sweep lines); a failed check is
// counted as a digest mismatch and also exits non-zero, closing the
// client end of the backend-to-consumer corruption detection path.
//
// -spread N rotates the seed over N variants per entry, turning the
// mix into N times as many distinct cells. With N larger than the
// server's cache-warm working set this defeats the response cache and
// keeps the pool computing — the overload scenario that makes 429
// shedding observable from the outside.
//
// -timeline subscribes to the first target's GET /v1/timeline for the
// run's duration and adds a correlation section to the artifact: how
// many p99-or-slower requests were in flight while the server published
// a bus-saturated telemetry window. Against a gateway the merged stream
// covers every backend.
//
// -scenario switches the driver to open-loop: arrivals follow a
// time-varying load pattern (internal/scenario grammar, e.g.
// "flashcrowd" or "step:10s@4; spike:10s@4..60; step:20s@4") scaled by
// -rate, issued at their planned offsets whether or not earlier
// responses returned. The summary gains a scenario section with
// achieved-vs-target rate, a schedule digest for rerun-identity
// checks, and a per-phase latency/shed breakdown; see openloop.go.
// -scenario-profiles points at a YAML file of named patterns.
//
// -targets spreads the closed-loop clients across several base URLs
// (smpsimd backends, or smpgw gateways) round-robin by client; byte
// identity is still enforced globally, so any divergence between
// targets is caught. -sweep N switches the driver to the batch API:
// each client claims N consecutive cells from the same deterministic
// stream and issues them as one POST /v1/sweep, recording one result
// per cell as its NDJSON line arrives.
//
// Usage:
//
//	smpload -addr http://localhost:8080 -clients 100 -requests 500 \
//	  -mix "CG x2, BBMA x4; Raytrace x2, nBBMA x4" -policies window,latest \
//	  -out LOAD_sim.json
//
//	smpload -targets http://localhost:8081,http://localhost:8082 \
//	  -clients 50 -requests 1000 -sweep 25 -spread 8
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"busaware/internal/digest"
	"busaware/internal/gateway"
	"busaware/internal/scenario"
)

type mixEntry struct {
	Spec   string
	Policy string
	Seed   int64
	Name   string // "<policy>/<spec>" for reporting

	mu    sync.Mutex
	first map[int64][]byte // first response body per seed variant (the reference)
}

// body renders the request JSON for one seed variant.
func (e *mixEntry) body(variant int64) ([]byte, error) {
	return json.Marshal(struct {
		Apps   string `json:"apps"`
		Policy string `json:"policy"`
		Seed   int64  `json:"seed"`
	}{e.Spec, e.Policy, e.Seed + variant})
}

// check records the first response body seen for a variant and
// reports whether body matches it. Bodies are normalized (trailing
// newline stripped) so the simulate wire format and the sweep's
// embedded form compare equal — a cell must be byte-identical no
// matter which endpoint, backend, or mode served it.
func (e *mixEntry) check(variant int64, body []byte) bool {
	body = bytes.TrimSuffix(body, []byte("\n"))
	e.mu.Lock()
	defer e.mu.Unlock()
	first, ok := e.first[variant]
	if !ok {
		e.first[variant] = append([]byte(nil), body...)
		return true
	}
	return bytes.Equal(first, body)
}

// result is one cell's outcome.
type result struct {
	code    int // 0 = transport error
	latency time.Duration
	done    time.Time // completion wall clock (for timeline correlation)
	match   bool      // body matched the entry's reference (200s only)
	hit     bool      // served from a response cache (200s only)
	// storeHit narrows hit: the backend answered from its persistent
	// store tier (X-Cache hit-t2/hit-t3) rather than memory — the
	// signal a warm restart or a warm ring join actually replayed
	// instead of recomputing.
	storeHit bool
	// badDigest marks a response whose X-Content-Digest (or sweep line
	// digest) did not match the bytes received — corruption in flight
	// that every upstream integrity check missed.
	badDigest bool
	// phase and late are open-loop bookkeeping (-scenario): which
	// pattern phase the arrival belonged to, and whether it was issued
	// more than lateSlack behind its planned deadline.
	phase int
	late  bool
}

// Summary is the JSON artifact smpload emits.
type Summary struct {
	Clients     int            `json:"clients"`
	Requests    int            `json:"requests"`
	DurationSec float64        `json:"duration_sec"`
	Throughput  float64        `json:"throughput_rps"`
	Codes       map[string]int `json:"codes"`
	// Errors counts transport-level failures (connection refused...).
	Errors int `json:"errors"`
	// Mismatches counts 200 responses whose body differed from the
	// first response for the same mix entry — must be zero against a
	// correct server.
	Mismatches int `json:"mismatches"`
	// DigestMismatches counts responses whose end-to-end integrity
	// digest (X-Content-Digest on /v1/simulate, the digest field on
	// sweep lines) failed to verify against the received bytes — must
	// be zero; any count means corruption crossed the serving plane
	// undetected.
	DigestMismatches int `json:"digest_mismatches"`
	// Shed is the 429 count, broken out since backpressure is expected
	// behaviour under overload, not failure.
	Shed int `json:"shed"`
	// CacheHits counts 200s the server marked as cache-served (any
	// hit-prefixed X-Cache value, or the sweep line's cache field).
	CacheHits int `json:"cache_hits"`
	// StoreHits is the subset of CacheHits served from a persistent
	// store tier (hit-t2 local disk, hit-t3 shared) — nonzero after a
	// warm restart or warm ring join, zero when every hit came from
	// memory.
	StoreHits int `json:"store_hits"`
	// LatencyMs covers successful (200) requests only.
	LatencyMs Percentiles `json:"latency_ms"`
	Mix       []string    `json:"mix"`
	// Targets are the base URLs the clients were spread across.
	Targets []string `json:"targets"`
	// Timeline correlates client-side p99 spikes with the server-side
	// telemetry windows streamed during the run (-timeline; absent when
	// disabled or the feed was unreachable).
	Timeline *TimelineCorrelation `json:"timeline,omitempty"`
	// Scenario is the open-loop section (-scenario; absent in
	// closed-loop runs): rate conformance, the schedule digest, and
	// the per-phase latency/shed breakdown.
	Scenario *ScenarioSummary `json:"scenario,omitempty"`
}

// Percentiles summarizes a latency distribution in milliseconds.
type Percentiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "smpsimd base URL")
	targets := flag.String("targets", "", "comma-separated base URLs to spread clients across (overrides -addr); smpsimd backends or smpgw gateways")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	requests := flag.Int("requests", 100, "total requests (cells) across all clients")
	mix := flag.String("mix", "CG x2, BBMA x4; Raytrace x2, nBBMA x4", "semicolon-separated workload specs")
	policies := flag.String("policies", "window", "comma-separated policies crossed with the mix")
	seed := flag.Int64("seed", 1, "base seed sent with every request")
	spread := flag.Int64("spread", 1, "rotate the seed over N variants per mix entry; >1 forces distinct cells (cache misses), the overload scenario")
	sweep := flag.Int("sweep", 0, "batch mode: each client issues N cells per POST /v1/sweep instead of one per /v1/simulate")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request client timeout")
	out := flag.String("out", "", "write the JSON summary to this file as well as stdout")
	strict := flag.Bool("strict", false, "also fail on any non-200 (including 429s)")
	timeline := flag.Bool("timeline", false, "stream the first target's /v1/timeline during the run and correlate p99 latency spikes with bus-saturated windows")
	scenarioPat := flag.String("scenario", "", "open-loop mode: drive arrivals from this load pattern or preset (internal/scenario grammar) instead of closed-loop clients; -requests and -sweep are ignored")
	scenarioProfiles := flag.String("scenario-profiles", "", "YAML profile file defining named patterns usable in -scenario")
	rate := flag.Float64("rate", 1, "open-loop only: scale applied to the pattern's level (level x rate = requests/sec)")
	flag.Parse()

	entries, err := buildMix(*mix, *policies, *seed)
	if err != nil {
		fatal(err)
	}
	if *clients < 1 {
		fatal(fmt.Errorf("need at least one client"))
	}
	if *requests < 1 && *scenarioPat == "" {
		fatal(fmt.Errorf("need at least one request"))
	}
	if *spread < 1 {
		fatal(fmt.Errorf("-spread must be >= 1"))
	}
	var pat *scenario.Pattern
	if *scenarioPat != "" {
		if *sweep > 1 {
			fatal(fmt.Errorf("-sweep and -scenario are mutually exclusive"))
		}
		if *rate <= 0 {
			fatal(fmt.Errorf("-rate must be > 0"))
		}
		var profiles map[string]string
		if *scenarioProfiles != "" {
			if profiles, err = scenario.LoadProfiles(*scenarioProfiles); err != nil {
				fatal(err)
			}
		}
		if pat, err = scenario.ParsePatternWith(*scenarioPat, profiles); err != nil {
			fatal(err)
		}
	} else if *scenarioProfiles != "" {
		fatal(fmt.Errorf("-scenario-profiles requires -scenario"))
	}
	bases := []string{*addr}
	if *targets != "" {
		bases = nil
		for _, u := range strings.Split(*targets, ",") {
			if u = strings.TrimSpace(u); u != "" {
				bases = append(bases, u)
			}
		}
		if len(bases) == 0 {
			fatal(fmt.Errorf("-targets has no URLs"))
		}
	}

	// The default transport keeps only 2 idle connections per host, so
	// beyond 2 clients every request would redial and the measured
	// latency would be connection churn, not server behaviour. Size the
	// keep-alive pool to the client count so each closed-loop client
	// keeps its own warm connection.
	httpc := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *clients,
			MaxIdleConnsPerHost: *clients,
		},
	}
	var watcher *timelineWatcher
	if *timeline {
		// Subscribe before load starts so no window of the run is
		// missed; the gateway's merged stream covers all backends when
		// the first target is an smpgw.
		watcher = watchTimeline(httpc, bases[0])
		if watcher == nil {
			fmt.Fprintln(os.Stderr, "smpload: warning: /v1/timeline unreachable; correlation disabled")
		}
	}

	var results []result
	var plan []arrival
	start := time.Now()
	if pat != nil {
		// Open-loop: the pattern plans the schedule; -requests is the
		// pattern's business, not a flag.
		if plan, err = planArrivals(pat, *rate, len(entries), *spread); err != nil {
			fatal(err)
		}
		results = runOpenLoop(httpc, bases, entries, plan, *clients, start)
	} else {
		results = make([]result, *requests)
		batch := 1
		if *sweep > 1 {
			batch = *sweep
		}
		var next int
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				base := bases[c%len(bases)]
				for {
					// Claim the next cell (or, in sweep mode, the next
					// contiguous block of cells) from the shared stream.
					mu.Lock()
					lo := next
					if lo >= len(results) {
						mu.Unlock()
						return
					}
					hi := lo + batch
					if hi > len(results) {
						hi = len(results)
					}
					next = hi
					mu.Unlock()
					// Deterministic request mix: the i-th cell overall
					// always targets the same entry and seed variant, so a
					// rerun offers the identical request stream.
					if *sweep > 1 {
						issueSweep(httpc, base, entries, *spread, lo, hi, results)
						continue
					}
					e := entries[lo%len(entries)]
					variant := int64(lo/len(entries)) % *spread
					results[lo] = issue(httpc, base, e, variant)
				}
			}(c)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	s := summarize(results, entries, *clients, elapsed)
	s.Targets = bases
	var events []timelineEvent
	if watcher != nil {
		// A short grace period lets windows sealed by the final cells
		// reach the subscriber before the stream is cut.
		time.Sleep(200 * time.Millisecond)
		events = watcher.stop()
		s.Timeline = correlate(results, events, s.LatencyMs.P99)
	}
	if pat != nil {
		s.Scenario = buildScenarioSummary(pat, *rate, plan, results, start, events)
	}
	body, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fatal(err)
	}
	body = append(body, '\n')
	os.Stdout.Write(body)
	if *out != "" {
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			fatal(err)
		}
	}
	if s.Mismatches > 0 {
		fatal(fmt.Errorf("%d responses diverged from their first occurrence", s.Mismatches))
	}
	if s.DigestMismatches > 0 {
		fatal(fmt.Errorf("%d responses failed integrity-digest verification", s.DigestMismatches))
	}
	if s.Errors > 0 {
		fatal(fmt.Errorf("%d transport errors", s.Errors))
	}
	if *strict && s.Codes["200"] != s.Requests {
		fatal(fmt.Errorf("strict: %d of %d requests not 200", s.Requests-s.Codes["200"], s.Requests))
	}
}

// buildMix crosses specs with policies into request templates.
func buildMix(mix, policies string, seed int64) ([]*mixEntry, error) {
	var entries []*mixEntry
	for _, spec := range strings.Split(mix, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		for _, policy := range strings.Split(policies, ",") {
			policy = strings.TrimSpace(policy)
			if policy == "" {
				continue
			}
			entries = append(entries, &mixEntry{
				Spec:   spec,
				Policy: policy,
				Seed:   seed,
				Name:   policy + "/" + spec,
				first:  map[int64][]byte{},
			})
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return entries, nil
}

// issue sends one request and checks byte-identity against the entry's
// reference body for the same seed variant.
func issue(httpc *http.Client, addr string, e *mixEntry, variant int64) result {
	reqBody, err := e.body(variant)
	if err != nil {
		return result{}
	}
	t0 := time.Now()
	resp, err := httpc.Post(addr+"/v1/simulate", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return result{latency: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return result{latency: lat}
	}
	r := result{code: resp.StatusCode, latency: lat, done: t0.Add(lat), match: true}
	if resp.StatusCode == http.StatusOK {
		r.match = e.check(variant, body)
		cache := resp.Header.Get("X-Cache")
		r.hit = strings.HasPrefix(cache, "hit")
		r.storeHit = cache == "hit-t2" || cache == "hit-t3"
		r.badDigest = !digest.Verify(resp.Header.Get(digest.Header), body)
	}
	return r
}

// issueSweep sends cells [lo, hi) of the deterministic stream as one
// batch and records a result per cell as its line arrives. The cells'
// results are zero on entry, so a cell the stream never answers (a
// request that cannot be built, or a transport failure mid-stream)
// counts as a transport error.
func issueSweep(httpc *http.Client, addr string, entries []*mixEntry, spread int64, lo, hi int, results []result) {
	type cellRef struct {
		e       *mixEntry
		variant int64
	}
	refs := make([]cellRef, 0, hi-lo)
	cells := make([]json.RawMessage, 0, hi-lo)
	for idx := lo; idx < hi; idx++ {
		e := entries[idx%len(entries)]
		variant := int64(idx/len(entries)) % spread
		body, err := e.body(variant)
		if err != nil {
			return
		}
		refs = append(refs, cellRef{e: e, variant: variant})
		cells = append(cells, body)
	}
	reqBody, err := json.Marshal(struct {
		Cells []json.RawMessage `json:"cells"`
	}{cells})
	if err != nil {
		return
	}

	t0 := time.Now()
	resp, err := httpc.Post(addr+"/v1/sweep", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		lat := time.Since(t0)
		for i := range refs {
			results[lo+i].latency = lat
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		lat := time.Since(t0)
		for i := range refs {
			results[lo+i] = result{code: resp.StatusCode, latency: lat}
		}
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		// smpgw's line schema is smpsimd's plus the backend field.
		var line gateway.SweepLine
		if err := json.Unmarshal(raw, &line); err != nil || line.Index < 0 || line.Index >= len(refs) {
			continue
		}
		ref := refs[line.Index]
		now := time.Now()
		r := result{code: line.Status, latency: now.Sub(t0), done: now, match: true}
		// The line's digest folds in the status and the index as this
		// client sees them (both smpsimd and smpgw stamp for the
		// receiver's coordinates), so one check covers body bytes, the
		// status digit, and cell identity.
		r.badDigest = !digest.VerifyLine(line.Digest, line.Status, line.Index, line.Response)
		if line.Status == http.StatusOK {
			r.match = ref.e.check(ref.variant, line.Response)
			r.hit = strings.HasPrefix(line.Cache, "hit")
			r.storeHit = line.Cache == "hit-t2" || line.Cache == "hit-t3"
		}
		results[lo+line.Index] = r
	}
}

func summarize(results []result, entries []*mixEntry, clients int, elapsed time.Duration) Summary {
	s := Summary{
		Clients:     clients,
		Requests:    len(results),
		DurationSec: elapsed.Seconds(),
		Codes:       map[string]int{},
	}
	if elapsed > 0 {
		s.Throughput = float64(len(results)) / elapsed.Seconds()
	}
	var okLat []float64
	for _, r := range results {
		if r.code == 0 {
			s.Errors++
			continue
		}
		s.Codes[fmt.Sprint(r.code)]++
		if r.badDigest {
			s.DigestMismatches++
		}
		switch {
		case r.code == http.StatusTooManyRequests:
			s.Shed++
		case r.code == http.StatusOK:
			okLat = append(okLat, float64(r.latency)/float64(time.Millisecond))
			if !r.match {
				s.Mismatches++
			}
			if r.hit {
				s.CacheHits++
			}
			if r.storeHit {
				s.StoreHits++
			}
		}
	}
	s.LatencyMs = percentiles(okLat)
	for _, e := range entries {
		s.Mix = append(s.Mix, e.Name)
	}
	return s
}

func percentiles(ms []float64) Percentiles {
	if len(ms) == 0 {
		return Percentiles{}
	}
	sort.Float64s(ms)
	// Nearest-rank: the P-th percentile is the ceil(p*N)-th smallest
	// sample. Floor truncation over len-1 biased small samples low —
	// with N=10 it reported P99 as the 9th smallest value, not the max.
	at := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(ms)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(ms) {
			i = len(ms) - 1
		}
		return ms[i]
	}
	var sum float64
	for _, v := range ms {
		sum += v
	}
	return Percentiles{
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		Max:  ms[len(ms)-1],
		Mean: sum / float64(len(ms)),
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smpload:", err)
	os.Exit(1)
}
