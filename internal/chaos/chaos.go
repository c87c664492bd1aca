// Package chaos is the seeded, deterministic network-fault layer for
// the serving plane: where internal/faults corrupts the simulated
// machine's telemetry, this package corrupts the HTTP path between the
// gateway and its backends — latency spikes, connection resets,
// truncated and corrupted bodies, blackholes, and spurious 5xx — so
// the breaker/budget/hedging/digest machinery in internal/gateway can
// be exercised on purpose, reproducibly, in CI.
//
// It follows internal/faults' design rules:
//
//   - Deterministic: one seeded rng per Injector; a fixed (Config,
//     event sequence) reproduces the exact same fault schedule. Every
//     event draws once per enabled class regardless of which class
//     fires, so the rng stream depends only on the event count.
//   - Inert at zero: a class at probability zero never draws, and a
//     nil *Injector answers every event with "no fault".
//   - Observable: per-class injected counts are exported as Stats (and
//     by cmd/smpchaos as JSON), which is what the CI chaos gate
//     compares across runs to prove reproducibility.
//
// Each class can carry a budget (Max): once that many faults of the
// class have been injected, the class goes quiet. Budgets make the
// injected-fault counts of a run a constant (the budget) instead of a
// binomial sample, which is what lets the chaos CI smoke assert
// count-identical schedules across independent runs.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Action is the fault class selected for one event.
type Action int

const (
	// ActNone passes the event through untouched.
	ActNone Action = iota
	// ActBlackhole swallows the request: no response, the connection
	// just hangs until the client gives up.
	ActBlackhole
	// ActReset tears the connection down abruptly mid-exchange.
	ActReset
	// ActErr5xx answers with a spurious 503 without consulting the
	// upstream.
	ActErr5xx
	// ActTruncate forwards a prefix of the response body, then cuts
	// the connection.
	ActTruncate
	// ActCorrupt flips bytes inside the response body, leaving the
	// framing (status, headers, lengths) intact — the case integrity
	// digests exist for.
	ActCorrupt
	// ActLatency delays the exchange by Decision.Delay, then proceeds
	// normally.
	ActLatency
)

// String names the action for stats and logs.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActBlackhole:
		return "blackhole"
	case ActReset:
		return "reset"
	case ActErr5xx:
		return "err5xx"
	case ActTruncate:
		return "truncate"
	case ActCorrupt:
		return "corrupt"
	case ActLatency:
		return "latency"
	}
	return "unknown"
}

// Class configures one fault class: a per-event probability and an
// optional budget (Max = 0 means unlimited).
type Class struct {
	Prob float64
	Max  uint64
}

// Config sets the per-class schedules. The zero value disables
// injection entirely.
type Config struct {
	// Seed seeds the injector's rng; the fault schedule is a pure
	// function of (Seed, classes, event order).
	Seed int64

	Blackhole Class
	Reset     Class
	Err5xx    Class
	Truncate  Class
	Corrupt   Class
	Latency   Class

	// LatencyDur is the fixed spike injected by the latency class
	// (0 = 200ms). A fixed spike keeps the schedule fully determined
	// by the draw sequence.
	LatencyDur time.Duration
}

// Enabled reports whether any class can fire.
func (c Config) Enabled() bool {
	for _, cl := range c.classes() {
		if cl.Prob > 0 {
			return true
		}
	}
	return false
}

// Validate rejects probabilities outside [0, 1].
func (c Config) Validate() error {
	names := classNames
	for i, cl := range c.classes() {
		if cl.Prob < 0 || cl.Prob > 1 {
			return fmt.Errorf("chaos: %s probability %v outside [0, 1]", names[i], cl.Prob)
		}
	}
	if c.LatencyDur < 0 {
		return fmt.Errorf("chaos: negative latency duration %v", c.LatencyDur)
	}
	return nil
}

// classes returns the classes in the fixed draw order. The order is
// part of the deterministic contract: blackhole and reset (the loudest
// faults) outrank body-level ones when several hit the same event.
func (c Config) classes() [6]Class {
	return [6]Class{c.Blackhole, c.Reset, c.Err5xx, c.Truncate, c.Corrupt, c.Latency}
}

var classNames = [6]string{"blackhole", "reset", "err5xx", "truncate", "corrupt", "latency"}

// Stats counts the faults an injector has actually delivered. Events
// counts every Decide call, injected or not.
type Stats struct {
	Events     uint64 `json:"events"`
	Blackholes uint64 `json:"blackholes"`
	Resets     uint64 `json:"resets"`
	Err5xx     uint64 `json:"err5xx"`
	Truncates  uint64 `json:"truncates"`
	Corrupts   uint64 `json:"corrupts"`
	Delays     uint64 `json:"delays"`
}

// counts exposes the per-class counters in class order for the budget
// check and the stats accounting.
func (s *Stats) counts() [6]*uint64 {
	return [6]*uint64{&s.Blackholes, &s.Resets, &s.Err5xx, &s.Truncates, &s.Corrupts, &s.Delays}
}

// Decision is the injector's verdict for one event.
type Decision struct {
	Action Action
	// Delay is the latency spike for ActLatency.
	Delay time.Duration
	// Seed parameterizes the body transform for ActTruncate (cut
	// offset) and ActCorrupt (flip phase), drawn from the injector's
	// rng so the transform is as reproducible as the schedule.
	Seed uint64
}

// Injector makes seeded per-event fault decisions. Safe for concurrent
// use; a nil *Injector is fully inert.
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	stats Stats
}

// New builds an injector for cfg, or nil when no class can fire.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if cfg.LatencyDur == 0 {
		cfg.LatencyDur = 200 * time.Millisecond
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Stats returns the per-class injected counts so far (zero for nil).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Decide draws the fault schedule for one event. Every enabled class
// draws exactly once per event — hits beyond the first are shadowed,
// not injected — so the rng stream advances identically no matter
// which faults fire, and the schedule is a pure function of the event
// sequence. A class whose budget is spent still draws (stream
// alignment) but can no longer be selected.
func (in *Injector) Decide() Decision {
	if in == nil {
		return Decision{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Events++
	classes := in.cfg.classes()
	counts := in.stats.counts()
	selected := -1
	for i, cl := range classes {
		if cl.Prob <= 0 {
			continue
		}
		hit := in.rng.Float64() < cl.Prob
		if !hit || selected >= 0 {
			continue
		}
		if cl.Max > 0 && *counts[i] >= cl.Max {
			continue // budget spent: class is quiet
		}
		selected = i
	}
	if selected < 0 {
		return Decision{}
	}
	*counts[selected]++
	d := Decision{Action: Action(selected + 1)} // class order matches Action order after ActNone
	switch d.Action {
	case ActLatency:
		d.Delay = in.cfg.LatencyDur
	case ActTruncate, ActCorrupt:
		d.Seed = in.rng.Uint64()
	}
	return d
}
