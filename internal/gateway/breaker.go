package gateway

import (
	"sync"
	"time"
)

// Circuit breaker: the per-backend request-outcome state machine that
// replaces PR 5's eject-on-any-connection-error. Ejection on a single
// transient error was fine when the only failure mode was a dead
// process; under a hostile network (chaos-injected resets, spurious
// 5xx) it flaps routing on every blip and destroys cache affinity. The
// breaker instead tolerates scattered failures, opens only on a
// *pattern* — a consecutive-failure run or a high error rate over the
// recent window — and then probes its way back with single half-open
// trials. Hard evidence of a dead process (a dial error: nothing is
// listening) still ejects immediately via the health flag; the breaker
// handles everything softer.
//
// States: closed (normal) → open (attempts refused for cooldown) →
// half-open (exactly one trial request) → closed on success, open
// again on failure.

const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

// breakerWindow is the recent-outcome ring used for the error-rate
// trip: the breaker opens when at least breakerRateNum/breakerRateDen
// of the last breakerWindow outcomes were failures (only once the ring
// is full, so a cold backend is not condemned on two samples).
const (
	breakerWindow  = 32
	breakerRateNum = 3
	breakerRateDen = 4
)

type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that open the circuit
	cooldown  time.Duration // open → half-open trial delay
	now       func() time.Time

	state    int
	failures int // consecutive
	openedAt time.Time
	probing  bool // a half-open trial is in flight

	// recent outcomes ring for the error-rate trip
	ring      [breakerWindow]bool // true = failure
	ringN     int
	ringIdx   int
	ringFails int

	// transition counters for /metrics
	opened   uint64
	reclosed uint64
}

// newBreaker builds a breaker; threshold <= 0 disables it (always
// closed, accounting only).
func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// disabled reports whether the breaker can ever open.
func (b *breaker) disabled() bool { return b.threshold <= 0 }

// Ready is the routing view: whether an attempt against this backend
// is currently worthwhile. Non-consuming — route ordering may ask many
// times; only Allow claims the half-open trial slot.
func (b *breaker) Ready() bool {
	if b.disabled() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return !b.probing
	default: // open
		return b.now().Sub(b.openedAt) >= b.cooldown
	}
}

// Allow claims permission for one attempt. An open breaker whose
// cooldown has elapsed moves to half-open and grants the caller the
// single trial; concurrent callers are refused until the trial
// resolves.
func (b *breaker) Allow() bool {
	if b.disabled() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// OnSuccess records a successful attempt: any state collapses to
// closed and the failure run resets.
func (b *breaker) OnSuccess() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		b.reclosed++
	}
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
	b.record(false)
}

// OnFailure records a failed attempt. A half-open trial failure
// reopens immediately; a closed breaker opens on a consecutive run of
// threshold failures or on the windowed error rate.
func (b *breaker) OnFailure() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.record(true)
	switch b.state {
	case breakerHalfOpen:
		b.trip()
	case breakerClosed:
		if b.failures >= b.threshold {
			b.trip()
			return
		}
		if b.ringN == breakerWindow && b.ringFails*breakerRateDen >= breakerWindow*breakerRateNum {
			b.trip()
		}
	}
}

// trip opens the circuit (caller holds the lock).
func (b *breaker) trip() {
	if b.state != breakerOpen {
		b.opened++
	}
	b.state = breakerOpen
	b.openedAt = b.now()
	b.probing = false
	// Reset the rate window so the re-close decision after cooldown is
	// made on fresh evidence, not the window that tripped it.
	b.ringN, b.ringIdx, b.ringFails = 0, 0, 0
}

// record pushes one outcome into the rate window (caller holds the
// lock).
func (b *breaker) record(failed bool) {
	if b.ringN == breakerWindow {
		if b.ring[b.ringIdx] {
			b.ringFails--
		}
	} else {
		b.ringN++
	}
	b.ring[b.ringIdx] = failed
	if failed {
		b.ringFails++
	}
	b.ringIdx = (b.ringIdx + 1) % breakerWindow
}

// State reports the current state for /metrics (0 closed, 1 half-open,
// 2 open).
func (b *breaker) State() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Transitions reports how many times the breaker opened and re-closed.
func (b *breaker) Transitions() (opened, reclosed uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opened, b.reclosed
}

// OnCancel records an attempt that ended without a verdict — hung up
// because other attempts answered its work, or abandoned by its
// client. A half-open trial it held is released, so the next attempt
// can claim it; nothing else moves.
func (b *breaker) OnCancel() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}
