package main

// Open-loop mode (-scenario): instead of N closed-loop clients issuing
// back to back, the driver materializes a deterministic arrival
// schedule from a load pattern (internal/scenario grammar or preset)
// and issues each request at its planned offset from the run start,
// regardless of whether earlier responses have returned. Offered load
// is then set by the pattern, not by the server — the open-loop
// half of the paper's evaluation story, where overload cannot slow the
// arrival process down and must surface as shedding.
//
// Pacing is token-bucket-like: a worker pool of -clients goroutines
// pulls arrivals in schedule order and sleeps until each one's
// deadline; arrivals that are behind schedule (all workers were busy)
// are issued immediately, back to back, until the pool catches up.
// Lateness beyond lateSlack is counted so the artifact shows when the
// driver, not the server, was the bottleneck.
//
// The same pattern + -rate + -spread always plans the identical
// schedule (arrival times, mix entries, seed variants); the summary
// records a digest of the plan so reruns can assert schedule identity.
//
// Cache-busting is phase-aware: arrivals inside a spike segment rotate
// over fresh seed variants (1..spread) while all other phases reuse
// variant 0. Steady-state traffic therefore warms and then hits the
// response cache, and the spike alone drives distinct simulations into
// the worker pool — which is what makes 429 shedding and bus-saturated
// timeline windows attributable to the spike from the outside.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"time"

	"busaware/internal/scenario"
	"busaware/internal/units"
)

// lateSlack is how far behind its planned deadline an arrival may
// issue before it is counted as late.
const lateSlack = 50 * time.Millisecond

// arrival is one planned open-loop request.
type arrival struct {
	at      units.Time // planned offset from run start
	entry   int        // index into the mix entries
	variant int64      // seed variant (0 outside spikes)
	phase   int        // index into the pattern's Phases()
}

// ScenarioSummary is the open-loop section of the Summary artifact.
type ScenarioSummary struct {
	// Pattern is the canonical form of the -scenario pattern, so two
	// artifacts can be compared on what was actually offered.
	Pattern string  `json:"pattern"`
	Rate    float64 `json:"rate"`
	// ScheduleDigest fingerprints the planned arrival schedule (times,
	// mix entries, seed variants). Two runs with the same pattern,
	// rate, mix and spread must report the same digest.
	ScheduleDigest  string  `json:"schedule_digest"`
	PlannedArrivals int     `json:"planned_arrivals"`
	TargetRPS       float64 `json:"target_rps"`
	// AchievedRPS divides the arrivals actually issued by the span
	// from run start to the last issuance (not the last response —
	// open-loop rate is about offering, not completing).
	AchievedRPS  float64 `json:"achieved_rps"`
	RateErrorPct float64 `json:"rate_error_pct"`
	// LateArrivals counts requests issued more than lateSlack behind
	// their planned deadline — driver-side saturation, not server-side.
	LateArrivals int `json:"late_arrivals"`
	// Phases breaks the run down by the pattern's primary-track
	// segments (e.g. flashcrowd: step#0 warmup, spike#1, step#2
	// recovery), which is where shed-during-spike shows up.
	Phases []PhaseSummary `json:"phases"`
}

// PhaseSummary is one pattern phase's slice of the run.
type PhaseSummary struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	StartSec  float64 `json:"start_sec"`
	EndSec    float64 `json:"end_sec"`
	Arrivals  int     `json:"arrivals"`
	OK        int     `json:"ok"`
	Shed      int     `json:"shed"`
	Errors    int     `json:"errors"`
	CacheHits int     `json:"cache_hits"`
	// LatencyMs covers this phase's 200s only.
	LatencyMs Percentiles `json:"latency_ms"`
	// SaturatedWindows counts bus-saturated timeline windows published
	// while this phase was active (-timeline only; windows publish
	// when sealed, so a window can trail the quanta it covers).
	SaturatedWindows int `json:"saturated_windows"`
}

// planArrivals expands the pattern into the deterministic open-loop
// schedule: arrival i targets mix entry i mod len(entries), and spike
// arrivals rotate over variants 1..spread while every other phase uses
// variant 0 (see the package comment for why).
func planArrivals(pat *scenario.Pattern, rate float64, entries int, spread int64) ([]arrival, error) {
	times := pat.Arrivals(rate)
	if len(times) == 0 {
		return nil, fmt.Errorf("scenario %q at rate %g plans zero arrivals", pat, rate)
	}
	phases := pat.Phases()
	plan := make([]arrival, len(times))
	var spikeSeq int64
	for i, at := range times {
		ph := pat.PhaseAt(at)
		var v int64
		if ph >= 0 && phases[ph].Kind == scenario.SegSpike {
			v = 1 + spikeSeq%spread
			spikeSeq++
		}
		plan[i] = arrival{at: at, entry: i % entries, variant: v, phase: ph}
	}
	return plan, nil
}

// scheduleDigest fingerprints the plan for rerun-identity checks.
func scheduleDigest(plan []arrival) string {
	h := sha256.New()
	var buf [8]byte
	for _, a := range plan {
		for _, v := range []int64{int64(a.at), int64(a.entry), a.variant} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runOpenLoop issues the plan against the targets. Workers claim
// arrivals in schedule order, sleep until each one's deadline, and
// issue behind-schedule arrivals immediately.
func runOpenLoop(httpc *http.Client, bases []string, entries []*mixEntry, plan []arrival, clients int, start time.Time) []result {
	results := make([]result, len(plan))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := bases[c%len(bases)]
			for {
				mu.Lock()
				i := next
				if i >= len(plan) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				a := plan[i]
				due := start.Add(time.Duration(a.at) * time.Microsecond)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				issued := time.Now()
				r := issue(httpc, base, entries[a.entry], a.variant)
				r.phase = a.phase
				r.late = issued.Sub(due) > lateSlack
				results[i] = r
			}
		}(c)
	}
	wg.Wait()
	return results
}

// buildScenarioSummary assembles the open-loop section: rate
// conformance, the schedule digest, and the per-phase breakdown with
// saturated-window attribution when a timeline feed was captured.
func buildScenarioSummary(pat *scenario.Pattern, rate float64, plan []arrival, results []result, start time.Time, events []timelineEvent) *ScenarioSummary {
	ss := &ScenarioSummary{
		Pattern:         pat.String(),
		Rate:            rate,
		ScheduleDigest:  scheduleDigest(plan),
		PlannedArrivals: len(plan),
	}
	if d := pat.Duration(); d > 0 {
		ss.TargetRPS = float64(len(plan)) / (float64(d) / float64(units.Second))
	}
	// Offered-rate conformance: span from run start to the last
	// issuance. A response's issue time is its completion minus its
	// latency; transport errors with no timestamp are skipped.
	var lastIssue time.Time
	for _, r := range results {
		if r.done.IsZero() {
			continue
		}
		if t := r.done.Add(-r.latency); t.After(lastIssue) {
			lastIssue = t
		}
	}
	if span := lastIssue.Sub(start); span > 0 {
		ss.AchievedRPS = float64(len(plan)) / span.Seconds()
	}
	if ss.TargetRPS > 0 && ss.AchievedRPS > 0 {
		ss.RateErrorPct = (ss.AchievedRPS - ss.TargetRPS) / ss.TargetRPS * 100
	}

	phases := pat.Phases()
	ps := make([]PhaseSummary, len(phases))
	lat := make([][]float64, len(phases))
	for i, ph := range phases {
		ps[i] = PhaseSummary{
			Name:     ph.Name,
			Kind:     ph.Kind.String(),
			StartSec: float64(ph.Start) / float64(units.Second),
			EndSec:   float64(ph.End) / float64(units.Second),
		}
	}
	for _, r := range results {
		if r.phase < 0 || r.phase >= len(ps) {
			continue
		}
		p := &ps[r.phase]
		p.Arrivals++
		if r.late {
			ss.LateArrivals++
		}
		switch {
		case r.code == 0:
			p.Errors++
		case r.code == http.StatusTooManyRequests:
			p.Shed++
		case r.code == http.StatusOK:
			p.OK++
			if r.hit {
				p.CacheHits++
			}
			lat[r.phase] = append(lat[r.phase], float64(r.latency)/float64(time.Millisecond))
		}
	}
	for i := range ps {
		ps[i].LatencyMs = percentiles(lat[i])
	}
	startMs := start.UnixMilli()
	for _, ev := range events {
		if ev.Window.Saturated == 0 {
			continue
		}
		off := units.Time(ev.WallMs-startMs) * units.Millisecond
		if pi := pat.PhaseAt(off); pi >= 0 && pi < len(ps) {
			ps[pi].SaturatedWindows++
		}
	}
	ss.Phases = ps
	return ss
}
