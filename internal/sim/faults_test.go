package sim

import (
	"reflect"
	"testing"

	"busaware/internal/faults"
	"busaware/internal/machine"
	"busaware/internal/sched"
	"busaware/internal/workload"
)

func mixedApps(t *testing.T) []*workload.App {
	t.Helper()
	p := profile(t, "CG")
	return []*workload.App{
		workload.NewApp(p, "CG#1"),
		workload.NewApp(p, "CG#2"),
		workload.NewApp(workload.BBMA(), "B#1"),
		workload.NewApp(workload.NBBMA(), "n#1"),
	}
}

func qwPolicy(t *testing.T) sched.Scheduler {
	t.Helper()
	s, err := sched.New("window", machine.DefaultConfig(), 0, sched.Params{StaleQuanta: sched.DefaultStaleQuanta})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The zero fault config must be inert: results are identical to a run
// with no fault field set at all, byte for byte.
func TestZeroFaultConfigInert(t *testing.T) {
	clean, err := Run(Config{}, policy("window"), mixedApps(t))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Run(Config{Faults: faults.Config{Seed: 123}}, policy("window"), mixedApps(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, zero) {
		t.Error("zero-rate fault config changed the run")
	}
	if clean.FaultStats != (faults.Stats{}) {
		t.Errorf("clean run reported faults: %+v", clean.FaultStats)
	}

	// Inert must also mean free: with every fault class gated off, the
	// quantum loop reuses its scratch and allocates nothing, so a whole
	// run's allocations are the fixed setup cost (apps, machine,
	// policy, result) regardless of how many quanta it simulates. The
	// workload above runs thousands of quanta; even one allocation per
	// quantum would blow this bound by an order of magnitude.
	const setupBound = 200 // measured ~121 incl. mixedApps construction
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(Config{Faults: faults.Config{Seed: 123}}, policy("window"), mixedApps(t)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > setupBound {
		t.Errorf("zero-fault run allocates %.0f times, want <= %d (per-quantum allocations crept back in)", allocs, setupBound)
	}
}

// Fault injection is deterministic per seed and actually injects.
func TestFaultRunDeterministicPerSeed(t *testing.T) {
	cfg := Config{Faults: faults.Config{
		Seed: 7, SampleLoss: 0.3, SignalLoss: 0.1, CrashProb: 0.02, SampleNoise: 0.2,
	}}
	a, err := Run(cfg, qwPolicy(t), mixedApps(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, qwPolicy(t), mixedApps(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("faulty runs with one seed diverged")
	}
	st := a.FaultStats
	if st.SamplesDropped == 0 || st.SignalsDropped == 0 {
		t.Errorf("faults not injected: %+v", st)
	}
	if a.TimedOut {
		t.Error("faulty run timed out")
	}

	other, err := Run(Config{Faults: faults.Config{
		Seed: 8, SampleLoss: 0.3, SignalLoss: 0.1, CrashProb: 0.02, SampleNoise: 0.2,
	}}, qwPolicy(t), mixedApps(t))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Apps, other.Apps) {
		t.Error("different seeds produced identical faulty runs (suspicious)")
	}
}

// Sample loss starves the policy, it does not corrupt execution: the
// workload still completes, and with the stale fallback enabled the
// run stays in the same ballpark as the clean one.
func TestSampleLossFailsSoft(t *testing.T) {
	clean, err := Run(Config{}, qwPolicy(t), mixedApps(t))
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(Config{Faults: faults.Config{Seed: 1, SampleLoss: 0.5}}, qwPolicy(t), mixedApps(t))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.TimedOut {
		t.Fatal("50% sample loss hung the run")
	}
	if faulty.FaultStats.SamplesDropped == 0 {
		t.Fatal("no samples dropped at rate 0.5")
	}
	// Losing half the telemetry may cost throughput but must not be
	// catastrophic: bounded degradation, not collapse.
	ratio := float64(faulty.MeanTurnaround()) / float64(clean.MeanTurnaround())
	if ratio > 1.5 {
		t.Errorf("sample loss blew turnaround up %.2fx", ratio)
	}
}

// An invalid fault rate is rejected before the run starts.
func TestInvalidFaultConfigRejected(t *testing.T) {
	_, err := Run(Config{Faults: faults.Config{SampleLoss: 2}}, qwPolicy(t), mixedApps(t))
	if err == nil {
		t.Error("out-of-range fault rate accepted")
	}
}
