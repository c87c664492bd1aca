package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"busaware/internal/units"
	"busaware/internal/workload"
)

// integrationStep is the fixed grid Arrivals integrates on and the
// churn materializer defaults to. One millisecond is
// three orders of magnitude finer than any pattern the evaluation
// uses, and a fixed step — rather than adaptive — is what makes every
// materialization bitwise-reproducible.
const integrationStep = units.Millisecond

// DefaultTick is the churn materializer's default control period: the
// pattern is sampled once per simulated second and the live population
// steered to the sampled level.
const DefaultTick = units.Second

// maxChurnEvents bounds a materialization so a degenerate
// pattern/tick combination cannot balloon memory.
const maxChurnEvents = 1 << 20

// maxChurnTicks bounds the ticks a materialization walks, so a long
// pattern at a fine tick cannot burn CPU even when it emits few events.
const maxChurnTicks = 1 << 20

// maxArrivals bounds an open-loop arrival schedule the same way.
const maxArrivals = 1 << 20

// EventKind is a churn event's direction.
type EventKind int

const (
	// EventArrive submits a new application instance at Event.At.
	EventArrive EventKind = iota
	// EventDepart retires the instance at Event.At. Departing an
	// instance that already completed on its own is a no-op.
	EventDepart
)

func (k EventKind) String() string {
	if k == EventDepart {
		return "depart"
	}
	return "arrive"
}

// Event is one materialized churn event.
type Event struct {
	// At is the event time in simulated microseconds. Events are
	// sorted by At; ties process departures before arrivals.
	At units.Time
	// Kind is arrive or depart.
	Kind EventKind
	// Profile names the application profile (registry name).
	Profile string
	// Instance is the unique instance label, "<Profile>/s<seq>" with a
	// schedule-global sequence number — disjoint from the base
	// workload's "<Profile>#<n>" namespace.
	Instance string
}

// Schedule is a pattern materialized into concrete churn events: the
// artifact the simulator consumes. It is a pure function of the
// ChurnSpec that produced it — same spec, same bytes.
type Schedule struct {
	// Spec is the canonicalized input (Pattern rendered canonically,
	// Pool run-length encoded).
	Spec ChurnSpec
	// Events in time order.
	Events []Event
	// Horizon is the time of the final drain: every instance arranged
	// by the schedule has departed (or been told to) by this point.
	Horizon units.Time
}

// ChurnSpec parameterizes a churn materialization.
type ChurnSpec struct {
	// Pattern is the load pattern; its level is read as the target
	// number of live scenario instances.
	Pattern string `json:"pattern"`
	// Pool is the workload spec ("CG x3, BBMA") the materializer draws
	// profiles from; multiplicities weight the draw. Empty selects
	// DefaultPool.
	Pool string `json:"pool,omitempty"`
	// Seed drives the profile draws. Zero is a valid seed.
	Seed int64 `json:"seed,omitempty"`
	// TickUsec is the control period in simulated microseconds; zero
	// selects DefaultTick.
	TickUsec int64 `json:"tick_usec,omitempty"`
}

// DefaultPool is the profile pool used when ChurnSpec.Pool is empty: a
// bandwidth-diverse mix (low, high, antagonist).
const DefaultPool = "Volrend, CG, BBMA"

// Canonical renders the spec's canonical identity string — the form
// shared by the daemon's cache key and the gateway ring, so "diurnal"
// and its expansion, or "CG,CG" and "CG x2" pools, cache identically.
// The receiver must already be canonicalized (as Materialize returns
// it).
func (c ChurnSpec) Canonical() string {
	return fmt.Sprintf("pat=%s|pool=%s|seed=%d|tick=%d", c.Pattern, c.Pool, c.Seed, c.TickUsec)
}

// Materialize turns a churn spec into a concrete event schedule.
//
// Every tick, the pattern level (rounded to nearest) becomes the
// target live population: shortfalls arrive (profiles drawn from the
// seeded pool), excess departs youngest-first (LIFO — a flash crowd
// recedes in reverse arrival order). After the final tick everything
// still live is drained, so a schedule never leaves endless
// antagonists running forever.
//
// The result is a pure function of the spec: same pattern + pool +
// seed + tick ⇒ bitwise-identical events.
func Materialize(spec ChurnSpec) (*Schedule, error) {
	p, err := ParsePattern(spec.Pattern)
	if err != nil {
		return nil, err
	}
	pool := spec.Pool
	if pool == "" {
		pool = DefaultPool
	}
	mix, err := workload.ParseMix(pool)
	if err != nil {
		return nil, fmt.Errorf("scenario: pool: %w", err)
	}
	tick := units.Time(spec.TickUsec)
	if tick < 0 {
		return nil, fmt.Errorf("scenario: negative tick")
	}
	if tick == 0 {
		tick = DefaultTick
	}
	horizon := p.Duration()
	if horizon <= 0 {
		return nil, fmt.Errorf("scenario: zero-duration pattern")
	}
	if horizon/tick >= maxChurnTicks {
		return nil, fmt.Errorf("scenario: schedule exceeds %d ticks (pattern too long or tick too fine)", maxChurnTicks)
	}

	canon := ChurnSpec{
		Pattern:  p.String(),
		Pool:     mix.String(),
		Seed:     spec.Seed,
		TickUsec: int64(tick),
	}
	sched := &Schedule{Spec: canon, Horizon: horizon}

	// One slot per pool instance, so multiplicities weight the draw.
	var slots []string
	for _, g := range mix {
		for i := 0; i < g.Count; i++ {
			slots = append(slots, g.Profile.Name)
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	type liveApp struct{ profile, instance string }
	var live []liveApp
	seq := 0
	emit := func(e Event) error {
		if len(sched.Events) >= maxChurnEvents {
			return fmt.Errorf("scenario: schedule exceeds %d events (pattern too long or tick too fine)", maxChurnEvents)
		}
		sched.Events = append(sched.Events, e)
		return nil
	}
	for t := units.Time(0); t <= horizon; t += tick {
		target := int(math.Floor(p.Level(t) + 0.5))
		// Departures first (ties in the event stream process the same
		// way), youngest first.
		for len(live) > target {
			last := live[len(live)-1]
			live = live[:len(live)-1]
			if err := emit(Event{At: t, Kind: EventDepart, Profile: last.profile, Instance: last.instance}); err != nil {
				return nil, err
			}
		}
		for len(live) < target {
			profile := slots[rng.Intn(len(slots))]
			seq++
			a := liveApp{profile: profile, instance: fmt.Sprintf("%s/s%d", profile, seq)}
			live = append(live, a)
			if err := emit(Event{At: t, Kind: EventArrive, Profile: a.profile, Instance: a.instance}); err != nil {
				return nil, err
			}
		}
	}
	// Final drain: the scenario ends with the pattern.
	for i := len(live) - 1; i >= 0; i-- {
		if err := emit(Event{At: horizon, Kind: EventDepart, Profile: live[i].profile, Instance: live[i].instance}); err != nil {
			return nil, err
		}
	}
	return sched, nil
}

// Arrivals materializes the pattern as an open-loop arrival schedule:
// the level is read as a request rate in requests per second (scaled
// by scale; pass 1 for the pattern as written), integrated on a fixed
// millisecond grid, and an arrival is emitted at each integer crossing
// of the cumulative integral. The schedule is a pure function of
// (pattern, scale) — no randomness — so same-seed load-driver reruns
// replay the identical request stream by construction.
//
// Offsets are quantized to the grid; a rate above 1000/s emits
// multiple arrivals on one grid point, which the driver issues
// back-to-back (the token-bucket burst).
func (p *Pattern) Arrivals(scale float64) []units.Time {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil
	}
	dur := p.Duration()
	var out []units.Time
	// crossEps absorbs accumulated float error so an exact-integral
	// pattern (20 rps x 10s) yields exactly its 200 arrivals instead of
	// 199-and-epsilon. Still deterministic: pure float arithmetic.
	const crossEps = 1e-9
	acc := 0.0
	next := 1.0
	stepSec := integrationStep.Seconds()
	for t := units.Time(0); t < dur; t += integrationStep {
		acc += p.Level(t) * scale * stepSec
		for acc+crossEps >= next {
			if len(out) >= maxArrivals {
				return out
			}
			out = append(out, t+integrationStep)
			next++
		}
	}
	return out
}
