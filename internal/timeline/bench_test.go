package timeline

import "testing"

// BenchmarkTimelineRecord measures the per-quantum recording cost the
// simulator pays when a timeline is attached. CI gates it at 0
// allocs/op: the collector must never allocate on the hot path, or the
// PR 3 fast-path win evaporates the moment observability is turned on.
func BenchmarkTimelineRecord(b *testing.B) {
	c := MustNew(Config{QuantaPerWindow: 64, Capacity: 256})
	s := Sample{
		DurUsec:     200_000,
		Utilization: 0.875,
		Served:      29.5,
		Stretch:     1.5,
		Placed:      4,
		Runnable:    6,
		Admitted:    3,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StartUsec = int64(i) * s.DurUsec
		c.RecordQuanta(s, 1)
	}
}
