package mem

import "busaware/internal/units"

// STREAM kernels, after McCalpin. The simulator uses these as address
// traces to calibrate the bus model the same way the authors used the
// real STREAM benchmark to calibrate their machine model (1797 MB/s,
// 29.5 trans/usec). cmd/calibrate additionally runs native in-memory
// versions (see NativeCopy etc. in native.go) on the host.

// StreamKernel identifies one of the four STREAM loops.
type StreamKernel int

// The four STREAM kernels.
const (
	StreamCopy  StreamKernel = iota // c[i] = a[i]
	StreamScale                     // b[i] = q*c[i]
	StreamAdd                       // c[i] = a[i]+b[i]
	StreamTriad                     // a[i] = b[i]+q*c[i]
)

func (k StreamKernel) String() string {
	switch k {
	case StreamCopy:
		return "Copy"
	case StreamScale:
		return "Scale"
	case StreamAdd:
		return "Add"
	case StreamTriad:
		return "Triad"
	default:
		return "Unknown"
	}
}

// arrays returns the number of source and destination arrays touched
// per iteration by kernel k.
func (k StreamKernel) arrays() (reads, writes int) {
	switch k {
	case StreamCopy, StreamScale:
		return 1, 1
	case StreamAdd, StreamTriad:
		return 2, 1
	default:
		return 0, 0
	}
}

// StreamTrace generates the reference stream of one STREAM kernel over
// arrays of ArrayBytes each (8-byte elements), for Passes passes.
// Arrays are laid out back to back starting at Base. STREAM arrays are
// sized to dwarf the cache, so nearly every line fetched is a miss —
// which is the point.
type StreamTrace struct {
	Kernel     StreamKernel
	Base       Addr
	ArrayBytes units.Bytes
	Passes     int

	i     int // element index within pass
	phase int // which operand of the current element
	pass  int
	done  bool
}

const streamElem = 8 // float64 elements

// Next implements Trace.
func (s *StreamTrace) Next() (Addr, bool, bool) {
	if s.done {
		return 0, false, false
	}
	reads, _ := s.Kernel.arrays()
	n := int(s.ArrayBytes) / streamElem
	// Operand order: all source arrays then the destination.
	arrayIdx := s.phase
	write := s.phase == reads
	addr := s.Base + Addr(arrayIdx)*Addr(s.ArrayBytes) + Addr(s.i*streamElem)
	s.phase++
	if s.phase > reads {
		s.phase = 0
		s.i++
		if s.i >= n {
			s.i = 0
			s.pass++
			if s.pass >= s.Passes {
				s.done = true
			}
		}
	}
	return addr, write, true
}

// Reset implements Trace.
func (s *StreamTrace) Reset() { s.i, s.phase, s.pass, s.done = 0, 0, 0, false }

// Refs returns the total number of references the trace will produce.
func (s *StreamTrace) Refs() int {
	reads, writes := s.Kernel.arrays()
	return s.Passes * (int(s.ArrayBytes) / streamElem) * (reads + writes)
}
