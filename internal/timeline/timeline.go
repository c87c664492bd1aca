// Package timeline turns the simulator's per-quantum activity into a
// bounded time series: bus utilization, latency stretch, per-policy
// admission decisions, queue depths and fault events, aggregated into
// fixed-span windows held in a fixed-size ring. The paper's whole
// argument is about *episodes* — a bus-saturation stretch, an
// admission-throttling phase, a degradation event — and end-of-run
// aggregates cannot show one; windows can, at bounded memory no matter
// how many millions of quanta a run simulates.
//
// The design splits cleanly in two:
//
//   - Window is pure data: every field is a sum (or a max) over the
//     quanta the window covers, so two windows covering disjoint quanta
//     combine with Merge. Sum-form is what makes Merge associative and
//     commutative — the gateway can fold windows from N backends in
//     whatever order their responses arrive and get the same answer.
//     Rates and means are derived on demand, never stored.
//
//   - Collector is the hot-path recorder: RecordQuanta accumulates
//     into the current window and seals it into a preallocated ring
//     every QuantaPerWindow quanta. The steady state allocates nothing
//     (gated by BenchmarkTimelineRecord at 0 allocs/op); when the ring
//     is full the oldest window is evicted into the running summary, so
//     nothing is lost from the totals even though per-window detail is.
package timeline

// Window aggregates QuantaPerWindow consecutive quanta of one run.
// All fields are totals over the covered quanta except the *Max fields;
// derive rates with the methods. Serialized as the NDJSON line schema
// of GET /v1/timeline (see DESIGN.md §8).
type Window struct {
	// Seq numbers sealed windows from 0 within one collector.
	Seq int64 `json:"seq"`
	// StartUsec and EndUsec bound the covered simulated time.
	StartUsec int64 `json:"start_usec"`
	EndUsec   int64 `json:"end_usec"`
	// Quanta is how many quanta the window covers.
	Quanta int64 `json:"quanta"`
	// UtilSum sums the per-quantum mean bus utilization.
	UtilSum float64 `json:"util_sum"`
	// UtilMax is the worst single quantum's bus utilization.
	UtilMax float64 `json:"util_max"`
	// ServedSum sums the per-quantum mean served transaction rates
	// (trans/usec).
	ServedSum float64 `json:"served_sum"`
	// StretchSum sums the bus latency stretch (the bus model's
	// equilibrium inflation X >= 1); StretchMax is the worst quantum.
	StretchSum float64 `json:"stretch_sum"`
	StretchMax float64 `json:"stretch_max"`
	// Placed counts thread-placements (threads x quanta executed).
	Placed int64 `json:"placed"`
	// Runnable sums the scheduler's queue depth (jobs connected and
	// incomplete) per quantum.
	Runnable int64 `json:"runnable"`
	// Admitted counts job-quanta the policy placed; Deferred counts
	// job-quanta it left waiting (runnable but unplaced) — the
	// admission decisions of a bandwidth-aware policy made visible.
	Admitted int64 `json:"admitted"`
	Deferred int64 `json:"deferred"`
	// Saturated counts quanta whose bus utilization reached
	// SaturationThreshold; Idle counts quanta with no placements at
	// all.
	Saturated int64 `json:"saturated"`
	Idle      int64 `json:"idle"`
	// Faults counts fault-injection events landing in the window.
	Faults int64 `json:"faults"`
}

// UtilMean returns the mean bus utilization over the window.
func (w Window) UtilMean() float64 { return ratio(w.UtilSum, w.Quanta) }

// ServedMean returns the mean served transaction rate (trans/usec).
func (w Window) ServedMean() float64 { return ratio(w.ServedSum, w.Quanta) }

// RunnableMean returns the mean scheduler queue depth.
func (w Window) RunnableMean() float64 { return ratio(float64(w.Runnable), w.Quanta) }

// DeferredFrac returns the fraction of job-quanta the policy deferred —
// the admission-throttling intensity.
func (w Window) DeferredFrac() float64 {
	return ratio(float64(w.Deferred), w.Admitted+w.Deferred)
}

func ratio(sum float64, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return sum / float64(n)
}

// Merge combines two windows covering disjoint sets of quanta: sums
// add, maxes take the max, and the time bounds extend to cover both.
// Merge is commutative and associative (exactly so for the integer
// fields; for the float sums up to the usual exactness of float64
// addition), so folding windows from many backends is order-
// independent — the property the gateway's cross-backend aggregation
// relies on and TestMergeAssociative pins. The merged Seq is the
// smaller of the two; an empty (zero Quanta) side yields the other
// unchanged so Window{} is the fold identity.
func Merge(a, b Window) Window {
	if a.Quanta == 0 {
		return b
	}
	if b.Quanta == 0 {
		return a
	}
	out := a
	if b.Seq < out.Seq {
		out.Seq = b.Seq
	}
	if b.StartUsec < out.StartUsec {
		out.StartUsec = b.StartUsec
	}
	if b.EndUsec > out.EndUsec {
		out.EndUsec = b.EndUsec
	}
	out.Quanta += b.Quanta
	out.UtilSum += b.UtilSum
	out.ServedSum += b.ServedSum
	out.StretchSum += b.StretchSum
	if b.UtilMax > out.UtilMax {
		out.UtilMax = b.UtilMax
	}
	if b.StretchMax > out.StretchMax {
		out.StretchMax = b.StretchMax
	}
	out.Placed += b.Placed
	out.Runnable += b.Runnable
	out.Admitted += b.Admitted
	out.Deferred += b.Deferred
	out.Saturated += b.Saturated
	out.Idle += b.Idle
	out.Faults += b.Faults
	return out
}

// Sample is one quantum's raw observation, recorded by sim.Run.
type Sample struct {
	// StartUsec is the quantum's start in simulated time; DurUsec its
	// length.
	StartUsec int64
	DurUsec   int64
	// Utilization is the quantum's mean bus utilization in [0,1].
	Utilization float64
	// Served is the mean served transaction rate (trans/usec).
	Served float64
	// Stretch is the bus latency inflation at quantum end (>= 1; 0 is
	// recorded as-is for idle quanta).
	Stretch float64
	// Placed is how many threads ran; Runnable how many jobs were
	// connected and incomplete; Admitted how many of those jobs ran.
	Placed   int
	Runnable int
	Admitted int
	// Faults is the number of fault events injected during the quantum.
	Faults int64
}
