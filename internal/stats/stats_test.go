package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"pair", []float64{2, 4}, 3},
		{"negative", []float64{-1, 1}, 0},
		{"paper-rates", []float64{0.48, 23.31}, 11.895},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); !almostEqual(got, tc.want, 1e-9) {
				t.Errorf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("StdDev of single sample = %v, want 0", got)
	}
	// Known value: sample stddev of {2,4,4,4,5,5,7,9} is ~2.138.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(got, 2.13809, 1e-4) {
		t.Errorf("StdDev = %v, want ~2.138", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	mn, err := Min(xs)
	if err != nil || mn != -2 {
		t.Errorf("Min = %v, %v; want -2, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %v, %v; want 7, nil", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Error("Min(nil) should return ErrEmpty")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Error("Max(nil) should return ErrEmpty")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p, want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, tc := range tests {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tc.p, err)
		}
		if !almostEqual(got, tc.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Error("Percentile(nil) should return ErrEmpty")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Min != 1 || s.Max != 4 || !almostEqual(s.Mean, 2.5, 1e-9) || !almostEqual(s.Median, 2.5, 1e-9) {
		t.Errorf("Summarize = %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Error("Summarize(nil) should return ErrEmpty")
	}
}

// Property: the mean always lies between min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		mn, _ := Min(clean)
		mx, _ := Max(clean)
		return m >= mn-1e-6 && m <= mx+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
