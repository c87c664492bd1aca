package timeline

import (
	"reflect"
	"testing"
)

// TestRecordQuantaStreamsEachSeal checks the collector's one fold path:
// a stretch folded with RecordQuanta leaves the same windows as quantum
// by quantum, and OnSeal fires for each window as it seals, in order
// and outside the lock, rather than after the whole stretch.
func TestRecordQuantaStreamsEachSeal(t *testing.T) {
	s := Sample{StartUsec: 1_000, DurUsec: 200, Utilization: 0.875, Served: 2.5, Stretch: 1.5, Placed: 4, Runnable: 5, Admitted: 3}

	one := MustNew(Config{QuantaPerWindow: 4, Capacity: 8})
	for k := 0; k < 11; k++ {
		q := s
		q.StartUsec += int64(k) * s.DurUsec
		one.RecordQuanta(q, 1)
	}
	one.Seal()

	var c *Collector
	var seqs, sealedAtFire []int64
	c = MustNew(Config{QuantaPerWindow: 4, Capacity: 8, OnSeal: func(w Window) {
		seqs = append(seqs, w.Seq)
		// Sealed takes the lock: this would deadlock if OnSeal ran
		// under it.
		sealedAtFire = append(sealedAtFire, c.Sealed())
	}})
	c.RecordQuanta(s, 3)
	rest := s
	rest.StartUsec += 3 * s.DurUsec
	c.RecordQuanta(rest, 8)
	c.Seal()

	if !reflect.DeepEqual(c.Windows(), one.Windows()) || c.Summary() != one.Summary() {
		t.Errorf("RecordQuanta windows differ from quantum-by-quantum folding:\n%+v\nvs\n%+v", c.Windows(), one.Windows())
	}
	if want := []int64{0, 1, 2}; !reflect.DeepEqual(seqs, want) {
		t.Errorf("OnSeal fired for windows %v, want %v", seqs, want)
	}
	if want := []int64{1, 2, 3}; !reflect.DeepEqual(sealedAtFire, want) {
		t.Errorf("collector had sealed %v windows at each OnSeal, want %v: each window streams as it seals", sealedAtFire, want)
	}
}
