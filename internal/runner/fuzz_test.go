package runner

import (
	"testing"

	"busaware/internal/faults"
	"busaware/internal/machine"
	"busaware/internal/scenario"
	"busaware/internal/sched"
	"busaware/internal/sim"
	"busaware/internal/trace"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// fuzzProfiles are the profiles a fuzzed mix draws from: the paper
// applications in PaperApps order, then the three microbenchmarks.
var fuzzProfiles = append(workload.PaperApps(), workload.BBMA(), workload.NBBMA(), workload.STREAM())

// fuzzProfile returns the index of the named profile in fuzzProfiles.
func fuzzProfile(name string) int {
	for i, p := range fuzzProfiles {
		if p.Name == name {
			return i
		}
	}
	panic("no fuzz profile " + name)
}

// fuzzQuanta are the quanta a fuzzed cell may run at: the policy's
// default (0), and others including one that is not a whole number of
// 10 ms micro-steps.
var fuzzQuanta = []units.Time{0, 50 * units.Millisecond, 100 * units.Millisecond,
	105 * units.Millisecond, 200 * units.Millisecond, 300 * units.Millisecond}

// fuzzMaxTime caps a fuzzed run's simulated time so one input runs in
// milliseconds on both cores. It is long enough to reach the seeded
// churn cell's migrating probe, 41 simulated seconds in.
const fuzzMaxTime = 60 * units.Second

// Fuzz flag bits.
const (
	fuzzSMT = 1 << iota
	fuzzChurn
	fuzzFaults
	fuzzTrace
)

// fuzzCell decodes fuzz bytes into a shadow-engine cell, one byte per
// choice, reading missing bytes as zero: the group count (1–4), each
// group's profile and instance count (1–3), the policy, the Linux
// seed, Params.Window (1–16), the quantum, the CPU count (1–8) and a
// flags byte (SMT on even CPU counts, churn, faults, a Chrome trace),
// then the churn preset and seed and the fault seed when their flags
// are set.
func fuzzCell(t testing.TB, data []byte) Cell {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var mix workload.Mix
	finite := false
	for n := 1 + next()%4; n > 0; n-- {
		p := fuzzProfiles[next()%len(fuzzProfiles)]
		finite = finite || !p.Endless()
		mix = append(mix, workload.Group{Profile: p, Count: 1 + next()%3})
	}
	if !finite {
		// A run needs an application that finishes.
		mix[0].Profile = workload.STREAM()
	}
	pols := sched.Policies()
	c := Cell{Label: "fuzz", Apps: mix, Policy: pols[next()%len(pols)], Seed: int64(1 + next()%3)}
	c.Params.Window = 1 + next()%16
	c.Params.Quantum = fuzzQuanta[next()%len(fuzzQuanta)]
	m := machine.DefaultConfig()
	m.NumCPUs = 1 + next()%8
	flags := next()
	if flags&fuzzSMT != 0 && m.NumCPUs%2 == 0 {
		m.SMT = true
	}
	c.Config = sim.Config{Machine: m, Engine: sim.EngineShadow, MaxTime: fuzzMaxTime}
	if flags&fuzzChurn != 0 {
		presets := scenario.Presets()
		spec := scenario.ChurnSpec{Pattern: presets[next()%len(presets)], Seed: int64(next())}
		s, err := scenario.Materialize(spec)
		if err != nil {
			t.Fatal(err)
		}
		c.Config.Scenario = s
	}
	if flags&fuzzFaults != 0 {
		c.Config.Faults = faults.Config{Seed: int64(next()), SampleLoss: 0.05, SampleNoise: 0.1,
			CounterLoss: 0.05, CounterNoise: 0.05, SignalLoss: 0.02, CrashProb: 0.01}
	}
	if flags&fuzzTrace != 0 {
		c.Config.Trace = &trace.Timeline{NumCPUs: m.NumCPUs}
	}
	return c
}

// fuzzGroup is one group of a seed input: a profile index into
// fuzzProfiles and an instance count.
type fuzzGroup struct{ profile, count int }

// fuzzBytes encodes a seed input for fuzzCell: the groups, the policy,
// the Linux seed, the window, the quantum index, the CPU count, the
// flags and any flag bytes that follow.
func fuzzBytes(groups []fuzzGroup, policy string, seed int64, window, quantum, cpus, flags int, extra ...byte) []byte {
	b := []byte{byte(len(groups) - 1)}
	for _, g := range groups {
		b = append(b, byte(g.profile), byte(g.count-1))
	}
	pol := -1
	for i, p := range sched.Policies() {
		if p == policy {
			pol = i
		}
	}
	b = append(b, byte(pol), byte(seed-1), byte(window-1), byte(quantum), byte(cpus-1), byte(flags))
	return append(b, extra...)
}

// FuzzShadowEngine runs generated cells under the shadow engine, which
// fails on any difference between the stepped and the event core:
// results, timeline windows and, when traced, Chrome-trace bytes. The
// corpus holds every Figure 1 and Figure 2 cell (with MaxTime capped),
// the ratio-gate workload, a traced cell whose uniform probe migrates a
// thread with no migration penalty, and the first input it found
// diverging.
func FuzzShadowEngine(f *testing.F) {
	bbma, nbbma, bt := fuzzProfile("BBMA"), fuzzProfile("nBBMA"), fuzzProfile("BT")
	window := func(policy string) int {
		if policy == "window" {
			return sched.DefaultWindow
		}
		return 1
	}
	for app := range workload.PaperApps() {
		for _, mix := range [][]fuzzGroup{
			{{app, 1}}, {{app, 2}}, {{app, 1}, {bbma, 2}}, {{app, 1}, {nbbma, 2}},
		} {
			f.Add(fuzzBytes(mix, "gang", 1, 1, 0, 4, 0))
		}
		for _, mix := range [][]fuzzGroup{
			{{app, 2}, {bbma, 2}, {bbma, 2}},
			{{app, 2}, {nbbma, 2}, {nbbma, 2}},
			{{app, 2}, {bbma, 2}, {nbbma, 2}},
		} {
			for seed := int64(1); seed <= 3; seed++ {
				f.Add(fuzzBytes(mix, "linux", seed, 1, 0, 4, 0))
			}
			for _, pol := range []string{"latest", "window"} {
				f.Add(fuzzBytes(mix, pol, 1, window(pol), 0, 4, 0))
			}
		}
	}
	f.Add(fuzzBytes([]fuzzGroup{{fuzzProfile("Barnes"), 1}, {bt, 1}}, "window", 1, sched.DefaultWindow, 0, 4, 0))
	// Every job fits on eight CPUs, and the samples the first quantum
	// pushes reorder the next selection: Stable must see the new order.
	water := fuzzProfile("Water-nsqr")
	f.Add(fuzzBytes([]fuzzGroup{{water, 2}, {nbbma, 1}, {water, 1}}, "latest", 1, 1, 0, 8, 0))
	flashcrowd := -1
	for i, p := range scenario.Presets() {
		if p == "flashcrowd" {
			flashcrowd = i
		}
	}
	f.Add(fuzzBytes([]fuzzGroup{{bbma, 1}, {nbbma, 1}, {bt, 1}}, "rr", 1, 1, 0, 8, fuzzChurn|fuzzTrace, byte(flashcrowd), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzCell(t, data)
		if _, err := c.Simulate(); err != nil {
			t.Fatalf("%s on %d CPUs (SMT %v), %+v: %v", c.Apps, c.Config.Machine.NumCPUs, c.Config.Machine.SMT, c.Params, err)
		}
	})
}
