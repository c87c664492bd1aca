package bus

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"busaware/internal/units"
	"busaware/internal/workload"
)

// referenceSolveStretch is the plain bisection solveStretch defines its
// answer by: the same bracket, midpoints, stop rule and early-outs,
// with f evaluated at every one of them.
func referenceSolveStretch(m *Model, reqs []Request, ceff, dmax, offered units.Rate) float64 {
	if offered <= 0 {
		return 1
	}
	f := func(x float64) float64 {
		rho := float64(m.servedAt(reqs, x, dmax) / ceff)
		return x - m.delayCurve(rho)
	}
	lo, hi := 1.0, maxStretch
	if f(lo) >= 0 {
		return lo
	}
	if f(hi) <= 0 {
		return hi
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-9*hi {
			break
		}
	}
	return (lo + hi) / 2
}

// checkSolve fails t unless solveStretch and the reference agree bit
// for bit on reqs, with the inputs AllocateInto would pass.
func checkSolve(t *testing.T, m *Model, reqs []Request) {
	t.Helper()
	ceff, dmax, offered := allocInputs(m, reqs)
	got := m.solveStretch(reqs, ceff, dmax, offered)
	want := referenceSolveStretch(m, reqs, ceff, dmax, offered)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("stretch %v (%#x), reference %v (%#x), for %+v (certified bracket %v)",
			got, math.Float64bits(got), want, math.Float64bits(want), reqs, m.bracketable)
	}
}

// solveModels returns a model on each solver path: the certified
// bracket (on every GOARCH but s390x, whose assembly math.Pow the
// monotonicity proof does not cover) and the plain bisection that
// s390x runs, forced here so every architecture checks it.
func solveModels() []*Model {
	plain := New()
	plain.bracketable = false
	return []*Model{New(), plain}
}

// Property: both solver paths return the reference's bits on random
// vectors, and on vectors built from special values that the
// monotonicity proof has to rule in or out.
func TestSolveStretchMatchesReference(t *testing.T) {
	special := [][]Request{
		{{Demand: units.Rate(math.NaN()), StallFrac: 0.5}, {Demand: 10, StallFrac: 0.9}},
		{{Demand: 10, StallFrac: math.NaN()}, {Demand: 10, StallFrac: 0.9}},
		{{Demand: units.Rate(math.Inf(1)), StallFrac: 0.5}, {Demand: 10, StallFrac: 0.9}},
		{{Demand: units.Rate(math.Inf(-1)), StallFrac: 0.5}, {Demand: 10, StallFrac: 0.9}},
		{{Demand: 10, StallFrac: math.Inf(1)}, {Demand: 10, StallFrac: math.Inf(-1)}},
		{{Demand: 1e300, StallFrac: 0}, {Demand: 1e300, StallFrac: 0.5}},
		{{Demand: 1e-300, StallFrac: 1}, {Demand: 5e-324, StallFrac: 0.3}},
		{{Demand: units.Rate(math.Copysign(0, -1)), StallFrac: 0.5}, {Demand: 40, StallFrac: 0}},
		{{Demand: 40, StallFrac: 0}, {Demand: 0.0037, StallFrac: 1}},
	}
	for _, m := range solveModels() {
		for _, reqs := range special {
			checkSolve(t, m, reqs)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 4000; i++ {
			checkSolve(t, m, randReqs(rng))
		}
	}
}

// decodeSolve reads a solver path (one byte: even for the certified
// bracket, odd for the plain bisection), a request count of 1-64 (one
// byte) and the requests from fuzz bytes. Each request is
// two float64 bit patterns; a demand outside [-1, 64] or a stall
// fraction outside [-0.5, 1.5] is folded into [0, 32) or [0, 1) from
// its bits, so every input prices a plausible vector while exact
// encodings (0, -0, 23.6, 0.0037, 1) pass through.
func decodeSolve(data []byte) (path int, reqs []Request) {
	if len(data) < 2 {
		return 0, nil
	}
	path, n := int(data[0])%2, int(data[1])%64+1
	data = data[2:]
	fold := func(bits uint64, lo, hi, span float64) float64 {
		if v := math.Float64frombits(bits); v >= lo && v <= hi {
			return v
		}
		return float64(bits>>11) / (1 << 53) * span
	}
	for i := 0; i < n && len(data) >= 16; i++ {
		reqs = append(reqs, Request{
			Demand:    units.Rate(fold(binary.LittleEndian.Uint64(data), -1, 64, 32)),
			StallFrac: fold(binary.LittleEndian.Uint64(data[8:]), -0.5, 1.5, 1),
		})
		data = data[16:]
	}
	return path, reqs
}

// encodeSolve is decodeSolve's inverse for the seed corpus.
func encodeSolve(path int, reqs []Request) []byte {
	data := []byte{byte(path), byte(len(reqs) - 1)}
	for _, r := range reqs {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(float64(r.Demand)))
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(r.StallFrac))
	}
	return data
}

// coSchedules returns per-thread request vectors built from the paper's
// co-schedules: every Figure 1 application next to two BBMA, two nBBMA
// or a second instance of itself, and every pair of applications (the
// pairs Figure 2 mixes) with one BBMA and one nBBMA — for each phase of
// a multi-phase profile in turn.
func coSchedules() [][]Request {
	threads := func(p workload.Profile, ph workload.Phase) []Request {
		rs := make([]Request, p.Threads)
		for i := range rs {
			rs[i] = Request{Demand: ph.Demand, StallFrac: ph.StallFrac}
		}
		return rs
	}
	bbma, nbbma := workload.BBMA(), workload.NBBMA()
	b := threads(bbma, bbma.Phases[0])[0]
	nb := threads(nbbma, nbbma.Phases[0])[0]
	apps := workload.PaperApps()
	var out [][]Request
	for i, p := range apps {
		for _, ph := range p.Phases {
			app := threads(p, ph)
			out = append(out,
				append(append([]Request(nil), app...), b, b),
				append(append([]Request(nil), app...), nb, nb),
				append(append([]Request(nil), app...), app...))
			for _, q := range apps[i+1:] {
				out = append(out, append(append(append([]Request(nil), app...), threads(q, q.Phases[0])...), b, nb))
			}
		}
	}
	return out
}

// FuzzSolveStretch checks both solver paths against the reference
// bisection bit for bit on decoded request vectors. The paper's
// co-schedules seed the certified path first, then the plain one.
func FuzzSolveStretch(f *testing.F) {
	f.Add(encodeSolve(0, benchReqs))
	for _, reqs := range coSchedules() {
		f.Add(encodeSolve(0, reqs))
	}
	f.Add(encodeSolve(0, []Request{{Demand: 23.6, StallFrac: 1}, {Demand: 0, StallFrac: 0}, {Demand: 0.0037, StallFrac: 0}}))
	f.Add(encodeSolve(1, benchReqs))
	for _, reqs := range coSchedules() {
		f.Add(encodeSolve(1, reqs))
	}
	models := solveModels()
	f.Fuzz(func(t *testing.T, data []byte) {
		path, reqs := decodeSolve(data)
		if len(reqs) == 0 {
			return
		}
		checkSolve(t, models[path], reqs)
	})
}
