package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"busaware/internal/faults"
	"busaware/internal/machine"
	"busaware/internal/runner"
	"busaware/internal/scenario"
	"busaware/internal/sched"
	"busaware/internal/sim"
	"busaware/internal/timeline"
	"busaware/internal/trace"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Request is the POST /v1/simulate body: one independent simulation
// cell, in the same vocabulary as the smpsim CLI flags. Omitted fields
// take the CLI defaults, and the defaults are applied *before* the
// cache key is built, so an explicit `"seed": 1` and an absent seed
// are the same request.
type Request struct {
	// Apps is the workload spec in the shared -apps grammar, e.g.
	// "CG x2, BBMA x4" (see workload.ParseSpec). Required.
	Apps string `json:"apps"`
	// Policy is a scheduler name (busaware.Policies); empty selects
	// "window" (Quanta Window), the paper's headline policy.
	Policy string `json:"policy,omitempty"`
	// Seed feeds the Linux baseline's runqueue shuffling; 0 selects 1,
	// the CLI default.
	Seed int64 `json:"seed,omitempty"`
	// CPUs overrides the processor count; 0 selects the paper
	// machine's 4.
	CPUs int `json:"cpus,omitempty"`
	// MaxTimeUsec caps simulated time; 0 selects sim.DefaultMaxTime.
	MaxTimeUsec int64 `json:"max_time_usec,omitempty"`
	// Faults optionally configures seeded fault injection
	// (internal/faults); absent means a fault-free run.
	Faults *faults.Config `json:"faults,omitempty"`
	// Trace embeds the Chrome trace-event JSON of the run's schedule in
	// the response.
	Trace bool `json:"trace,omitempty"`
	// Timeline embeds the run's per-window telemetry (bus utilization,
	// admission decisions, queue depths, fault counts aggregated into
	// 64-quantum windows) in the response. Telemetry is collected for
	// every run regardless — this flag only controls whether the
	// windows ride back on the response body.
	Timeline bool `json:"timeline,omitempty"`
	// Scenario optionally layers deterministic workload churn over the
	// base apps (see internal/scenario): a load pattern in the compact
	// DSL ("flashcrowd", "step:10s@4; spike:10s@4..60", ...), a
	// profile pool, a seed and a tick. The spec is canonicalized into
	// the cache key — a preset and its expansion, or equivalent pool
	// spellings, cache identically. Absent means the classic fixed
	// mix.
	Scenario *scenario.ChurnSpec `json:"scenario,omitempty"`
}

// maxCPUs bounds a request's processor count: machine state grows
// with it, and the evaluation's largest machine has 8 logical CPUs.
const maxCPUs = 1024

// cell is a validated, normalized request: every default applied and
// Key its exact-match cache identity. canon makes it without
// instantiating anything but a churn schedule; the run instantiates
// its apps and scheduler only on a miss, in the pool worker.
type cell struct {
	// Key canonicalizes the request: specs that parse to the same
	// workload ("CG x2" vs "CG, CG") and requests that spell out a
	// default vs omit it collide on purpose.
	Key string
	// run is the simulation: mix, policy, seed, and a config holding
	// the machine, time cap, faults and churn schedule. The worker adds
	// the engine, the telemetry collector and any Chrome trace.
	run      runner.Cell
	trace    bool
	timeline bool
}

// canon validates req, applies defaults and renders the key. It checks
// spec, cpus, max_time_usec, faults, scenario, then policy, so a
// request wrong in several ways is always refused for the first.
func canon(req Request) (*cell, error) {
	apps, err := workload.ParseMix(req.Apps)
	if err != nil {
		return nil, err
	}
	policy := req.Policy
	if policy == "" {
		policy = "window"
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	if req.CPUs < 0 {
		return nil, fmt.Errorf("server: cpus = %d", req.CPUs)
	}
	if req.CPUs > maxCPUs {
		return nil, fmt.Errorf("server: cpus = %d exceeds %d", req.CPUs, maxCPUs)
	}
	m := machine.DefaultConfig()
	if req.CPUs > 0 {
		m.NumCPUs = req.CPUs
	}
	if req.MaxTimeUsec < 0 {
		return nil, fmt.Errorf("server: max_time_usec = %d", req.MaxTimeUsec)
	}
	maxTime := units.Time(req.MaxTimeUsec)
	if maxTime == 0 {
		maxTime = sim.DefaultMaxTime
	}
	var fcfg faults.Config
	if req.Faults != nil {
		fcfg = *req.Faults
		if err := fcfg.Validate(); err != nil {
			return nil, err
		}
	}
	var churn *scenario.Schedule
	scnKey := "-"
	if req.Scenario != nil {
		churn, err = scenario.Materialize(*req.Scenario)
		if err != nil {
			return nil, err
		}
		// The materialized spec is canonical (pattern rendered, pool
		// run-length encoded, tick defaulted), so equivalent spellings
		// collide in the cache and on the gateway ring.
		scnKey = churn.Spec.Canonical()
	}
	if !slices.Contains(sched.Policies(), policy) {
		_, err := sched.New(policy, m, seed, sched.Params{}) // words the refusal; builds nothing
		return nil, fmt.Errorf("server: %w", err)
	}
	key := fmt.Sprintf("v1|policy=%s|seed=%d|cpus=%d|maxt=%d|trace=%t|tl=%t|faults=%s|scn=%s|apps=%s",
		policy, seed, m.NumCPUs, int64(maxTime), req.Trace, req.Timeline,
		faultKey(fcfg), scnKey, apps)
	return &cell{
		Key: key,
		run: runner.Cell{Label: key, Apps: apps, Policy: policy, Seed: seed,
			Config: sim.Config{Machine: m, MaxTime: maxTime, Faults: fcfg, Scenario: churn}},
		trace:    req.Trace,
		timeline: req.Timeline,
	}, nil
}

// CanonicalKey validates req and returns its canonical cache key —
// the identity both the response cache and the gateway's shard routing
// hash, so "which shard owns this request" and "which cache entry
// answers it" can never disagree. It builds nothing.
func CanonicalKey(req Request) (string, error) {
	c, err := canon(req)
	if err != nil {
		return "", err
	}
	return c.Key, nil
}

// faultKey encodes a fault config exactly: the seed plus the raw
// IEEE-754 bits of every rate, mirroring the bus cache's bit-exact
// keying. A disabled config keys as "-" so fault-free requests are
// insensitive to how "no faults" was spelled.
func faultKey(c faults.Config) string {
	if !c.Enabled() {
		return "-"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d", c.Seed)
	for _, r := range []float64{
		c.SampleLoss, c.SampleNoise, c.CounterLoss, c.CounterNoise,
		c.SignalLoss, c.SignalDup, c.SignalDelay, c.CrashProb, c.RequestLoss,
	} {
		fmt.Fprintf(&b, ":%x", math.Float64bits(r))
	}
	return b.String()
}

// AppResult is one application's outcome in a Response. Times are raw
// simulated microseconds (int64) rather than formatted strings, so
// responses are exact and trivially machine-diffable.
type AppResult struct {
	Instance string `json:"instance"`
	Profile  string `json:"profile"`
	// ArrivedUsec is omitted when zero, so classic fixed-mix responses
	// (and their cached bytes) are unchanged by scenario support.
	ArrivedUsec    int64   `json:"arrived_usec,omitempty"`
	TurnaroundUsec int64   `json:"turnaround_usec"`
	SoloUsec       int64   `json:"solo_usec"`
	Slowdown       float64 `json:"slowdown"`
	RunUsec        int64   `json:"run_usec"`
	MeanBusRate    float64 `json:"mean_bus_rate"`
	Transactions   uint64  `json:"transactions"`
}

// Response is the POST /v1/simulate result — also emitted verbatim by
// `smpsim -json`, so CLI and server outputs diff cleanly. Marshalling
// is deterministic (fixed field order, Go's shortest-float encoding),
// which is what lets the server cache whole response bodies and promise
// byte-identical replays.
type Response struct {
	Scheduler          string      `json:"scheduler"`
	Apps               []AppResult `json:"apps"`
	EndTimeUsec        int64       `json:"end_time_usec"`
	Quanta             int         `json:"quanta"`
	Migrations         int         `json:"migrations"`
	ContextSwitches    int         `json:"context_switches"`
	MeanBusUtilization float64     `json:"mean_bus_utilization"`
	MeanTurnaroundUsec int64       `json:"mean_turnaround_usec"`
	TimedOut           bool        `json:"timed_out,omitempty"`
	FaultsInjected     uint64      `json:"faults_injected,omitempty"`
	// Scenario churn totals; all omitted for classic fixed-mix runs so
	// pre-scenario response bytes are unchanged.
	ScenarioArrivals   int             `json:"scenario_arrivals,omitempty"`
	ScenarioDepartures int             `json:"scenario_departures,omitempty"`
	ScenarioCompleted  int             `json:"scenario_completed,omitempty"`
	TraceEvents        json.RawMessage `json:"trace_events,omitempty"`
	// Timeline carries the run's per-window telemetry when the request
	// set "timeline": true.
	Timeline *TimelineReport `json:"timeline,omitempty"`
}

// TimelineReport is the per-window telemetry embedded in a Response
// (and in figures' JSON artifact): the retained windows in sealing
// order plus the merged run total. Windows are in the sum-form schema
// of internal/timeline — exact, and mergeable by consumers.
type TimelineReport struct {
	QuantaPerWindow     int     `json:"quanta_per_window"`
	SaturationThreshold float64 `json:"saturation_threshold"`
	// Evicted counts windows the bounded ring dropped; the Summary
	// still covers them.
	Evicted int64             `json:"evicted,omitempty"`
	Summary timeline.Window   `json:"summary"`
	Windows []timeline.Window `json:"windows"`
}

// NewTimelineReport snapshots a collector into the response schema.
func NewTimelineReport(col *timeline.Collector) *TimelineReport {
	return &TimelineReport{
		QuantaPerWindow:     col.QuantaPerWindow(),
		SaturationThreshold: timeline.SaturationThreshold,
		Evicted:             col.Evicted(),
		Summary:             col.Summary(),
		Windows:             col.Windows(),
	}
}

// NewResponse converts a completed run (and its optional Chrome trace
// and timeline telemetry, either nilable) into the shared response
// schema.
func NewResponse(res sim.Result, tl *trace.Timeline, col *timeline.Collector) (*Response, error) {
	resp := &Response{
		Scheduler:          res.Scheduler,
		Apps:               make([]AppResult, 0, len(res.Apps)),
		EndTimeUsec:        int64(res.EndTime),
		Quanta:             res.Quanta,
		Migrations:         res.Migrations,
		ContextSwitches:    res.ContextSwitches,
		MeanBusUtilization: res.MeanBusUtilization,
		MeanTurnaroundUsec: int64(res.MeanTurnaround()),
		TimedOut:           res.TimedOut,
		FaultsInjected:     res.FaultStats.Total(),
		ScenarioArrivals:   res.ScenarioArrivals,
		ScenarioDepartures: res.ScenarioDepartures,
		ScenarioCompleted:  res.ScenarioCompleted,
	}
	for _, a := range res.Apps {
		resp.Apps = append(resp.Apps, AppResult{
			Instance:       a.Instance,
			Profile:        a.Profile,
			ArrivedUsec:    int64(a.Arrived),
			TurnaroundUsec: int64(a.Turnaround),
			SoloUsec:       int64(a.SoloTime),
			Slowdown:       a.Slowdown,
			RunUsec:        int64(a.RunTime),
			MeanBusRate:    float64(a.MeanBusRate),
			Transactions:   a.Transactions,
		})
	}
	if tl != nil {
		var buf bytes.Buffer
		if err := tl.WriteChromeTrace(&buf); err != nil {
			return nil, err
		}
		resp.TraceEvents = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	if col != nil {
		resp.Timeline = NewTimelineReport(col)
	}
	return resp, nil
}

// MarshalBody renders the response as the exact bytes served over
// HTTP: compact JSON plus a trailing newline.
func (r *Response) MarshalBody() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
