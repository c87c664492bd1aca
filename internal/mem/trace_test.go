package mem

import (
	"testing"

	"busaware/internal/units"
)

func drain(t *testing.T, tr Trace, wantRefs int) (addrs []Addr, writes int) {
	t.Helper()
	for {
		a, w, ok := tr.Next()
		if !ok {
			break
		}
		addrs = append(addrs, a)
		if w {
			writes++
		}
		if wantRefs >= 0 && len(addrs) > wantRefs {
			t.Fatalf("trace exceeded expected %d refs", wantRefs)
		}
	}
	if wantRefs >= 0 && len(addrs) != wantRefs {
		t.Fatalf("trace yielded %d refs, want %d", len(addrs), wantRefs)
	}
	return addrs, writes
}

func TestColumnWiseOrder(t *testing.T) {
	c := &ColumnWise{NumRows: 3, RowBytes: 8, Elem: 4, Write: true}
	addrs, writes := drain(t, c, c.Refs())
	want := []Addr{0, 8, 16, 4, 12, 20}
	if len(addrs) != len(want) {
		t.Fatalf("got %d refs, want %d", len(addrs), len(want))
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Errorf("ref %d = %#x, want %#x", i, addrs[i], want[i])
		}
	}
	if writes != len(want) {
		t.Errorf("writes = %d, want all %d", writes, len(want))
	}
}

func TestColumnWiseReset(t *testing.T) {
	c := &ColumnWise{NumRows: 2, RowBytes: 8, Elem: 4}
	first, _ := drain(t, c, c.Refs())
	if _, _, ok := c.Next(); ok {
		t.Error("exhausted trace should stay exhausted")
	}
	c.Reset()
	second, _ := drain(t, c, c.Refs())
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("reset trace differs from original")
		}
	}
}

func TestBBMASizing(t *testing.T) {
	b := NewBBMA(256*units.KB, 64)
	// Array is 2x cache: rows = 2*256KB/64 = 8192 rows of one line each.
	if b.NumRows != 8192 {
		t.Errorf("BBMA rows = %d, want 8192", b.NumRows)
	}
	if !b.Write {
		t.Error("BBMA must write (paper: column-wise writes)")
	}
	if b.Refs() != 8192*16 {
		t.Errorf("BBMA refs = %d, want %d", b.Refs(), 8192*16)
	}
}

func TestRowWiseSequential(t *testing.T) {
	r := &RowWise{ArrayBytes: 16, Elem: 4, Passes: 2}
	addrs, _ := drain(t, r, r.Refs())
	want := []Addr{0, 4, 8, 12, 0, 4, 8, 12}
	for i := range want {
		if addrs[i] != want[i] {
			t.Errorf("ref %d = %#x, want %#x", i, addrs[i], want[i])
		}
	}
}

func TestNBBMASizing(t *testing.T) {
	n := NewNBBMA(256*units.KB, 3)
	if n.ArrayBytes != 128*units.KB {
		t.Errorf("nBBMA array = %v, want half of L2", n.ArrayBytes)
	}
	if n.Write {
		t.Error("nBBMA is read-dominated in our model")
	}
}

func TestStridedWraps(t *testing.T) {
	s := &Strided{ArrayBytes: 128, Stride: 64, Count: 4}
	addrs, _ := drain(t, s, 4)
	want := []Addr{0, 64, 0, 64}
	for i := range want {
		if addrs[i] != want[i] {
			t.Errorf("ref %d = %#x, want %#x", i, addrs[i], want[i])
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	mk := func() *Random {
		return &Random{ArrayBytes: 1 * units.MB, Count: 100, WriteFrac: 0.5, Seed: 7}
	}
	a1, w1 := drain(t, mk(), 100)
	a2, w2 := drain(t, mk(), 100)
	if w1 != w2 {
		t.Errorf("write counts differ: %d vs %d", w1, w2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	r := mk()
	drain(t, r, 100)
	r.Reset()
	a3, _ := drain(t, r, 100)
	for i := range a1 {
		if a1[i] != a3[i] {
			t.Fatal("reset random trace differs")
		}
	}
}

func TestConcat(t *testing.T) {
	c := &Concat{Traces: []Trace{
		&RowWise{ArrayBytes: 8, Elem: 4, Passes: 1},
		&Strided{ArrayBytes: 64, Stride: 32, Count: 2, Base: 1000},
	}}
	addrs, _ := drain(t, c, 4)
	want := []Addr{0, 4, 1000, 1032}
	for i := range want {
		if addrs[i] != want[i] {
			t.Errorf("ref %d = %#x, want %#x", i, addrs[i], want[i])
		}
	}
	c.Reset()
	again, _ := drain(t, c, 4)
	for i := range want {
		if again[i] != want[i] {
			t.Fatal("concat reset broken")
		}
	}
}

func TestStreamTraceShape(t *testing.T) {
	s := &StreamTrace{Kernel: StreamTriad, ArrayBytes: 32, Passes: 1}
	// 4 elements per array, 3 operands per element (b, c reads; a write).
	addrs, writes := drain(t, s, s.Refs())
	if len(addrs) != 12 {
		t.Fatalf("triad refs = %d, want 12", len(addrs))
	}
	if writes != 4 {
		t.Errorf("triad writes = %d, want 4", writes)
	}
}

func TestStreamKernelNames(t *testing.T) {
	for k, want := range map[StreamKernel]string{
		StreamCopy: "Copy", StreamScale: "Scale", StreamAdd: "Add", StreamTriad: "Triad",
	} {
		if k.String() != want {
			t.Errorf("kernel %d name = %q, want %q", k, k.String(), want)
		}
	}
	if StreamKernel(99).String() != "Unknown" {
		t.Error("unknown kernel should stringify as Unknown")
	}
}

func TestNativeStreamRuns(t *testing.T) {
	// Tiny run just to exercise the code path; bandwidth value is
	// host-dependent, only sanity-check positivity.
	for _, k := range []StreamKernel{StreamCopy, StreamScale, StreamAdd, StreamTriad} {
		res := RunNative(k, 1<<12, 2)
		if res.MBPerSec <= 0 {
			t.Errorf("%v native bandwidth = %v", k, res.MBPerSec)
		}
		if res.Bytes <= 0 {
			t.Errorf("%v bytes moved = %v", k, res.Bytes)
		}
	}
}
