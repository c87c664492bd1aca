package machine

import (
	"testing"

	"busaware/internal/units"
	"busaware/internal/workload"
)

// BenchmarkMachineStep measures one fully-loaded scheduling quantum on
// the default 4-CPU machine: ten micro-steps of bus arbitration over a
// mixed bandwidth-heavy / bandwidth-light co-schedule. The antagonist
// profiles are endless, so the thread set is in steady state for the
// whole run — this is the per-quantum cost the simulator pays in its
// inner loop.
func BenchmarkMachineStep(b *testing.B) {
	m, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	mustApp := func(name, instance string) *workload.App {
		p, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("no profile %q", name)
		}
		return workload.NewApp(p, instance)
	}
	placements := []Placement{
		{Thread: mustApp("BBMA", "BBMA#1").Threads[0], CPU: 0},
		{Thread: mustApp("BBMA", "BBMA#2").Threads[0], CPU: 1},
		{Thread: mustApp("nBBMA", "nBBMA#1").Threads[0], CPU: 2},
		{Thread: mustApp("nBBMA", "nBBMA#2").Threads[0], CPU: 3},
	}
	quantum := 100 * units.Millisecond
	if _, err := m.Step(placements, quantum); err != nil { // warm caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Step(placements, quantum); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineStepGang measures one quantum of barrier gangs on the
// default machine, where each placed thread's Request and AdvanceWork
// ask about its siblings. The gangs are CG made endless, so the thread
// set is in steady state for the whole run.
//
//   - lockstep: two gangs placed whole. Their siblings advance alike, so
//     the thread's sibling floor answers nearly every micro-step
//     without a scan.
//   - split: one sibling of each gang beside two antagonists, the Linux
//     baseline's split gang. The placed sibling sits at its barrier and
//     spins, so every micro-step rescans.
func BenchmarkMachineStepGang(b *testing.B) {
	gang := func(instance string) *workload.App {
		p, _ := workload.ByName("CG")
		p.SoloTime = 0
		return workload.NewApp(p, instance)
	}
	antagonist := func(name, instance string) *workload.Thread {
		p, _ := workload.ByName(name)
		return workload.NewApp(p, instance).Threads[0]
	}
	cases := []struct {
		name  string
		place func() []Placement
	}{
		{"lockstep", func() []Placement {
			a, c := gang("CG#1"), gang("CG#2")
			return []Placement{
				{Thread: a.Threads[0], CPU: 0}, {Thread: a.Threads[1], CPU: 1},
				{Thread: c.Threads[0], CPU: 2}, {Thread: c.Threads[1], CPU: 3},
			}
		}},
		{"split", func() []Placement {
			return []Placement{
				{Thread: gang("CG#1").Threads[0], CPU: 0}, {Thread: gang("CG#2").Threads[0], CPU: 1},
				{Thread: antagonist("BBMA", "BBMA#1"), CPU: 2}, {Thread: antagonist("nBBMA", "nBBMA#1"), CPU: 3},
			}
		}},
	}
	quantum := 100 * units.Millisecond
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer m.Release()
			placements := tc.place()
			// Warm the bus table, and run the split gangs into their
			// barriers.
			for range 5 {
				if _, err := m.Step(placements, quantum); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Step(placements, quantum); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
