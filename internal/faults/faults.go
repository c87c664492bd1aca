// Package faults is the seeded, deterministic fault-injection layer
// for the reproduction's unreliable substrate. The paper's CPU manager
// is explicitly engineered for lossy telemetry and signalling —
// block/unblock *counts* exist because signals can be reordered or
// arrive late — and this package makes those failure modes injectable
// so the graceful-degradation paths in perfctr, cpumanager and sched
// can be exercised on purpose instead of only in production.
//
// Design rules:
//
//   - Deterministic: an Injector owns one seeded rng and all fault
//     decisions are draws from it, so a fixed (Config, call sequence)
//     reproduces the exact same fault pattern. Callers must therefore
//     consult the injector in a deterministic order (the simulator
//     iterates applications in input order, the manager iterates
//     signal states in thread order).
//   - Inert at zero: a fault class whose rate is zero never draws from
//     the rng, and a nil *Injector answers every query with "no fault".
//     Enabling one class does not change the behaviour of code paths
//     guarded by another class left at zero rate.
//   - Observable: every injected fault increments a per-class counter,
//     so experiments can report how many faults a run actually
//     absorbed.
package faults

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Config sets the per-class fault rates. All rates are probabilities
// in [0, 1]; the zero value disables injection entirely.
type Config struct {
	// Seed seeds the injector's rng; fault patterns are a pure
	// function of (Seed, rates, query order).
	Seed int64

	// SampleLoss is the probability that an application's published
	// bus-bandwidth sample is lost for one quantum (the run-time
	// library missed its arena update slot).
	SampleLoss float64
	// SampleNoise is the relative magnitude of multiplicative noise on
	// published samples: a perturbed sample is v*(1+u*SampleNoise)
	// with u uniform in [-1, 1].
	SampleNoise float64

	// CounterLoss is the probability that one perfctr Monitor.Poll
	// fails (ok == false, baseline kept — the next successful poll
	// spans the gap, i.e. the reading goes stale, not lost).
	CounterLoss float64
	// CounterNoise is the relative noise on the polled bus-transaction
	// rate: one perturbation per successful perfctr Monitor.Poll.
	CounterNoise float64

	// SignalLoss is the probability one block/unblock signal is
	// dropped in flight.
	SignalLoss float64
	// SignalDup is the probability a delivered signal is delivered a
	// second time (the paper's signal-counting rule must tolerate it).
	SignalDup float64
	// SignalDelay is the probability a signal is deferred to the next
	// signalling round instead of delivered immediately.
	SignalDelay float64

	// CrashProb is the per-application, per-quantum probability that
	// the client (the run-time library) crashes and reconnects: its
	// session state and sample history are lost and it misses the
	// quantum.
	CrashProb float64

	// RequestLoss is the probability a wire-protocol request times out
	// (FlakyConn fails the write with a net.Error timeout, so the
	// request never reaches the manager and a retry is safe).
	RequestLoss float64
}

// Enabled reports whether any fault class has a positive rate.
func (c Config) Enabled() bool {
	return c.SampleLoss > 0 || c.SampleNoise > 0 ||
		c.CounterLoss > 0 || c.CounterNoise > 0 ||
		c.SignalLoss > 0 || c.SignalDup > 0 || c.SignalDelay > 0 ||
		c.CrashProb > 0 || c.RequestLoss > 0
}

// Validate rejects rates outside [0, 1].
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"SampleLoss", c.SampleLoss}, {"SampleNoise", c.SampleNoise},
		{"CounterLoss", c.CounterLoss}, {"CounterNoise", c.CounterNoise},
		{"SignalLoss", c.SignalLoss}, {"SignalDup", c.SignalDup},
		{"SignalDelay", c.SignalDelay}, {"CrashProb", c.CrashProb},
		{"RequestLoss", c.RequestLoss},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s = %v outside [0, 1]", r.name, r.v)
		}
	}
	return nil
}

// Stats counts the faults an injector has actually delivered.
type Stats struct {
	SamplesDropped    uint64
	SamplesPerturbed  uint64
	CountersDropped   uint64
	CountersPerturbed uint64
	SignalsDropped    uint64
	SignalsDuplicated uint64
	SignalsDelayed    uint64
	Crashes           uint64
	RequestsDropped   uint64
}

// Total sums every fault class.
func (s Stats) Total() uint64 {
	return s.SamplesDropped + s.SamplesPerturbed +
		s.CountersDropped + s.CountersPerturbed +
		s.SignalsDropped + s.SignalsDuplicated + s.SignalsDelayed +
		s.Crashes + s.RequestsDropped
}

// Injector makes seeded fault decisions. It is safe for concurrent
// use, and a nil *Injector is a valid, fully inert injector — call
// sites do not need to guard against it.
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	stats Stats
}

// New builds an injector for cfg. A disabled config yields a nil
// injector, so the zero-rate path never allocates an rng and is
// byte-for-byte identical to not configuring faults at all.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Config returns the injector's configuration (zero for nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfgSnapshot()
}

// SetConfig swaps the fault rates mid-run — tests use it to model a
// wire that recovers (or degrades) while a client is connected. The
// rng stream and accumulated stats are kept. No-op on nil.
func (in *Injector) SetConfig(cfg Config) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.cfg = cfg
	in.mu.Unlock()
}

// Stats returns the per-class fault counts so far (zero for nil).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// cfgSnapshot reads the (swappable) config under the lock.
func (in *Injector) cfgSnapshot() Config {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cfg
}

// draw performs one Bernoulli trial at probability p. Zero-probability
// classes never touch the rng, keeping the fault classes independent.
func (in *Injector) draw(p float64, hit *uint64) bool {
	if in == nil || p <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() >= p {
		return false
	}
	*hit++
	return true
}

// perturb multiplies v by (1 + u*mag), u uniform in [-1, 1], clamped
// at zero (rates cannot go negative).
func (in *Injector) perturb(v, mag float64, hit *uint64) float64 {
	if in == nil || mag <= 0 {
		return v
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	u := in.rng.Float64()*2 - 1
	*hit++
	out := v * (1 + u*mag)
	if out < 0 {
		return 0
	}
	return out
}

// DropSample reports whether one application-level bandwidth sample is
// lost this quantum.
func (in *Injector) DropSample() bool {
	if in == nil {
		return false
	}
	return in.draw(in.cfgSnapshot().SampleLoss, &in.stats.SamplesDropped)
}

// PerturbSample applies the sample-noise fault to a published rate.
func (in *Injector) PerturbSample(v float64) float64 {
	if in == nil {
		return v
	}
	return in.perturb(v, in.cfgSnapshot().SampleNoise, &in.stats.SamplesPerturbed)
}

// DropCounterSample reports whether one perfctr poll fails. Together
// with PerturbCounterRate it implements perfctr.FaultHook.
func (in *Injector) DropCounterSample() bool {
	if in == nil {
		return false
	}
	return in.draw(in.cfgSnapshot().CounterLoss, &in.stats.CountersDropped)
}

// PerturbCounterRate applies counter noise to one polled bus-transaction
// rate.
func (in *Injector) PerturbCounterRate(v float64) float64 {
	if in == nil {
		return v
	}
	return in.perturb(v, in.cfgSnapshot().CounterNoise, &in.stats.CountersPerturbed)
}

// DropSignal reports whether one block/unblock signal is lost.
func (in *Injector) DropSignal() bool {
	if in == nil {
		return false
	}
	return in.draw(in.cfgSnapshot().SignalLoss, &in.stats.SignalsDropped)
}

// DuplicateSignal reports whether a delivered signal repeats.
func (in *Injector) DuplicateSignal() bool {
	if in == nil {
		return false
	}
	return in.draw(in.cfgSnapshot().SignalDup, &in.stats.SignalsDuplicated)
}

// DelaySignal reports whether a signal is deferred to the next round.
func (in *Injector) DelaySignal() bool {
	if in == nil {
		return false
	}
	return in.draw(in.cfgSnapshot().SignalDelay, &in.stats.SignalsDelayed)
}

// CrashEnabled reports whether the crash fault class can fire at all
// (nonzero rate). Callers use it to skip per-quantum bookkeeping that
// exists only to service crash decisions; with the class at rate zero
// the skip is behaviour-preserving because Crash would draw nothing.
func (in *Injector) CrashEnabled() bool {
	if in == nil {
		return false
	}
	return in.cfgSnapshot().CrashProb > 0
}

// SignalLossEnabled reports whether the signal-loss class can fire,
// the bookkeeping gate analogous to CrashEnabled.
func (in *Injector) SignalLossEnabled() bool {
	if in == nil {
		return false
	}
	return in.cfgSnapshot().SignalLoss > 0
}

// Crash reports whether one application's client crashes this quantum.
func (in *Injector) Crash() bool {
	if in == nil {
		return false
	}
	return in.draw(in.cfgSnapshot().CrashProb, &in.stats.Crashes)
}

// DropRequest reports whether one wire request times out.
func (in *Injector) DropRequest() bool {
	if in == nil {
		return false
	}
	return in.draw(in.cfgSnapshot().RequestLoss, &in.stats.RequestsDropped)
}

// timeoutError is the net.Error FlakyConn raises for a dropped
// request: Timeout() is true so retry logic can distinguish it from a
// hard connection failure.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faults: injected request timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var _ net.Error = timeoutError{}

// FlakyConn wraps a net.Conn so that each Write fails with an injected
// net.Error timeout at the injector's RequestLoss rate. The write is
// swallowed whole — the peer never sees the request — so retrying the
// request is safe (no half-delivered frames, no stream desync).
type FlakyConn struct {
	net.Conn
	inj *Injector
}

// NewFlakyConn wraps conn with injected request timeouts.
func NewFlakyConn(conn net.Conn, inj *Injector) *FlakyConn {
	return &FlakyConn{Conn: conn, inj: inj}
}

// Write implements net.Conn.
func (c *FlakyConn) Write(p []byte) (int, error) {
	if c.inj.DropRequest() {
		return 0, timeoutError{}
	}
	return c.Conn.Write(p)
}

// Sleeper is a pluggable clock wait, so retry backoff is testable
// without real delays. The zero value sleeps for real.
type Sleeper func(time.Duration)

// Sleep waits for d, using time.Sleep when the sleeper is nil.
func (s Sleeper) Sleep(d time.Duration) {
	if s != nil {
		s(d)
		return
	}
	time.Sleep(d)
}
