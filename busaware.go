// Package busaware reproduces "Scheduling Algorithms with Bus
// Bandwidth Considerations for SMPs" (Antonopoulos, Nikolopoulos,
// Papatheodorou — ICPP 2003) as a simulation library.
//
// The package bundles:
//
//   - a quantum-stepped model of the paper's 4-way Xeon SMP with a
//     STREAM-calibrated shared front-side bus (internal/machine,
//     internal/bus) and per-processor L2 caches (internal/cache);
//   - phase-structured synthetic versions of the paper's NAS and
//     Splash-2 applications plus the BBMA / nBBMA antagonist
//     microbenchmarks (internal/workload), observed through
//     virtualized performance counters (internal/perfctr);
//   - the paper's two bus-bandwidth-aware gang policies — Latest
//     Quantum and Quanta Window — together with a Linux-2.4-style
//     baseline and several ablation schedulers (internal/sched), and
//     the user-level CPU manager protocol (internal/cpumanager);
//   - runners that regenerate every figure of the paper's evaluation
//     (internal/experiments) with text/CSV rendering
//     (internal/report).
//
// The exported surface is a thin facade: construct a workload, pick a
// policy, run it, and read turnarounds — or call the Figure functions
// in figures.go to regenerate the paper's evaluation wholesale.
package busaware

import (
	"fmt"

	"busaware/internal/machine"
	"busaware/internal/scenario"
	"busaware/internal/sched"
	"busaware/internal/sim"
	"busaware/internal/timeline"
	"busaware/internal/trace"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Re-exported core types. The aliases keep one set of definitions in
// the internal packages while giving users a single import.
type (
	// Time is simulated time in microseconds.
	Time = units.Time
	// Rate is a bus-transaction rate in transactions/usec.
	Rate = units.Rate
	// Profile describes an application type (gang size, phases,
	// working set).
	Profile = workload.Profile
	// App is a running application instance.
	App = workload.App
	// Scheduler is a scheduling policy.
	Scheduler = sched.Scheduler
	// Result is a completed simulation run.
	Result = sim.Result
	// AppResult is one application's outcome within a Result.
	AppResult = sim.AppResult
	// MachineConfig describes the simulated SMP: its processor count
	// and whether SMT is on. The bus and the rest of the machine are
	// the paper platform's calibration.
	MachineConfig = machine.Config
	// Timeline records per-quantum scheduling decisions for rendering
	// or Chrome-trace export.
	Timeline = trace.Timeline
	// TimelineCollector aggregates per-quantum telemetry into bounded
	// windows (bus utilization, admission decisions, queue depths,
	// fault events); TimelineConfig and TimelineWindow size and carry
	// it. See internal/timeline.
	TimelineCollector = timeline.Collector
	TimelineConfig    = timeline.Config
	TimelineWindow    = timeline.Window
	// LoadPattern is a time-varying load level (ramp/sine/spike/step
	// segments, composable with "+"); ChurnSpec names a pattern plus a
	// profile pool and seed, and ChurnSchedule is its materialized
	// arrival/departure event list. See internal/scenario.
	LoadPattern   = scenario.Pattern
	ChurnSpec     = scenario.ChurnSpec
	ChurnSchedule = scenario.Schedule
)

// Time units, re-exported for convenience.
const (
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
)

// SustainedBusRate is the STREAM-calibrated bus capacity
// (29.5 transactions/usec on the paper's machine).
const SustainedBusRate = units.SustainedBusRate

// PaperMachine returns the simulated paper platform: a dedicated
// 4-processor Xeon SMP with 256KB L2 caches and a 29.5 trans/usec
// front-side bus.
func PaperMachine() MachineConfig { return machine.DefaultConfig() }

// Applications returns the eleven paper applications in increasing
// solo-bandwidth order (Figure 1A's x axis).
func Applications() []Profile { return workload.PaperApps() }

// AppByName resolves a profile by name: the eleven applications plus
// "BBMA", "nBBMA" and "STREAM".
func AppByName(name string) (Profile, bool) { return workload.ByName(name) }

// NewInstance creates one runnable instance of a profile.
func NewInstance(p Profile, instance string) *App {
	return workload.NewApp(p, instance)
}

// Instances creates n numbered instances of a profile.
func Instances(p Profile, n int) []*App { return workload.Instances(p, n) }

// ParseApps expands a workload spec like "CG x2, BBMA x4" into
// application instances — the grammar shared by the smpsim CLI and the
// smpsimd HTTP daemon (see workload.ParseSpec).
func ParseApps(spec string) ([]*App, error) { return workload.ParseSpec(spec) }

// Policy names accepted by NewScheduler.
const (
	PolicyLatestQuantum = "latest"
	PolicyQuantaWindow  = "window"
	PolicyEWMA          = "ewma"
	PolicyOracle        = "oracle"
	PolicyLinux         = "linux"
	PolicyGang          = "gang"
	PolicyRoundRobin    = "rr"
	PolicyOptimal       = "optimal"
)

// NewScheduler builds a scheduler by name for the given machine. The
// seed only affects the Linux baseline's runqueue shuffling.
func NewScheduler(policy string, m MachineConfig, seed int64) (Scheduler, error) {
	s, err := sched.New(policy, m, seed, sched.Params{})
	if err != nil {
		return nil, fmt.Errorf("busaware: %w", err)
	}
	return s, nil
}

// Policies lists the accepted policy names.
func Policies() []string { return sched.Policies() }

// EngineKind selects the simulation core a run executes on.
type EngineKind = sim.EngineKind

// The three simulation engines: the quantum-stepped reference core
// (default), the event-driven core that leaps across constant
// stretches, and shadow mode, which runs both and fails on any
// divergence in results or timeline telemetry.
const (
	EngineQuantum = sim.EngineQuantum
	EngineEvent   = sim.EngineEvent
	EngineShadow  = sim.EngineShadow
)

// ParseEngine maps a flag value to an engine: "" or "quantum",
// "event", or "shadow".
func ParseEngine(s string) (EngineKind, error) { return sim.ParseEngine(s) }

// Run executes apps on machine m under s until every finite
// application completes, and returns per-application turnarounds and
// machine-wide statistics.
func Run(m MachineConfig, s Scheduler, apps []*App) (Result, error) {
	return sim.Run(sim.Config{Machine: m}, s, apps)
}

// NewTimelineCollector builds a timeline collector; the zero config
// selects the defaults (64-quantum windows, 1024-window ring, 0.9
// saturation threshold).
func NewTimelineCollector(cfg TimelineConfig) (*TimelineCollector, error) {
	return timeline.New(cfg)
}

// RunPolicy is the one-call convenience wrapper: build the named
// policy and run the workload on the paper machine.
func RunPolicy(policy string, apps []*App) (Result, error) {
	m := PaperMachine()
	s, err := NewScheduler(policy, m, 1)
	if err != nil {
		return Result{}, err
	}
	return Run(m, s, apps)
}

// RunEngine is Run on an explicit simulation engine. newSched rebuilds
// an equivalent scheduler for the shadow engine's verification core;
// it is required when engine is EngineShadow and may be nil otherwise.
func RunEngine(engine EngineKind, m MachineConfig, s Scheduler, newSched func() (Scheduler, error), apps []*App) (Result, error) {
	return sim.Run(sim.Config{Machine: m, Engine: engine, SchedulerFactory: newSched}, s, apps)
}

// LoadPatternPresets lists the built-in pattern names (diurnal,
// flashcrowd, stepstorm).
func LoadPatternPresets() []string { return scenario.Presets() }

// MaterializeChurn expands a churn spec into its deterministic
// arrival/departure schedule: the same spec always yields the same
// events, bit for bit.
func MaterializeChurn(spec ChurnSpec) (*ChurnSchedule, error) { return scenario.Materialize(spec) }
