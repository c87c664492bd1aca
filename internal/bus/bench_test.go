package bus

import (
	"testing"

	"busaware/internal/units"
)

// benchReqs is a saturated mixed request vector shaped like the
// Figure 2C co-schedules: two application threads, one BBMA, one
// nBBMA.
var benchReqs = []Request{
	{Demand: 6.2, StallFrac: 0.55},
	{Demand: 6.2, StallFrac: 0.55},
	{Demand: 21.1, StallFrac: 0.97},
	{Demand: 0.0037, StallFrac: 0.01},
}

// BenchmarkBusAllocate measures the table's replay path: after the
// first solve the vector repeats, so every call is a keyed table hit.
// The machine asks only when its vector changes, so in a simulation
// this is the cost of a return to an earlier vector, not of each
// micro-step.
func BenchmarkBusAllocate(b *testing.B) {
	m := New()
	var grants []Grant
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grants, _ = m.AllocateInto(grants, benchReqs)
	}
}

// BenchmarkBusAllocateCold measures the uncached fixed-point solve and
// its table insert by perturbing one demand every iteration, so no
// vector repeats before its slot has been overwritten.
func BenchmarkBusAllocateCold(b *testing.B) {
	m := New()
	reqs := append([]Request(nil), benchReqs...)
	var grants []Grant
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs[0].Demand = 6 + units.Rate(i%100000)*1e-6
		grants, _ = m.AllocateInto(grants, reqs)
	}
}
