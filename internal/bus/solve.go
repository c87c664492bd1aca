package bus

import (
	"math"
	"runtime"

	"busaware/internal/units"
)

// solveStretch finds the unique fixed point of
// X = delayCurve(served(X)/ceff) by bisection. F(X) = X - delay(...)
// is strictly increasing: served falls with X, delay rises with
// served, so -delay rises with X.
//
// The bisection — its bracket [1, maxStretch], midpoints, stop rule and
// both early-outs — defines the answer bit for bit. A certified
// bracket only spares evaluations of f: given f(a) < 0 <= f(b) for the
// f computed here, every midpoint at or below a takes the lo branch
// and every one at or above b the hi branch, exactly as evaluating f
// there would decide, because computed f never decreases (see
// bracketable). A certified f(b) > 0 likewise settles the
// f(maxStretch) early-out, and a certified a the f(1) one.
func (m *Model) solveStretch(reqs []Request, ceff, dmax, offered units.Rate) float64 {
	// No zero-capacity early-out: ceff >= SustainedBusRate*minCapacityFrac > 0.
	// Early-out hoisted before the bracket: with no offered load the
	// delay at X=1 is exactly 1, so f(1) = 0 and the bisection below
	// would return 1 anyway — prove it without scanning reqs or
	// evaluating the curve. No flat-curve early-out: queueFactor is 0.05.
	if offered <= 0 {
		return 1
	}
	f := func(x float64) float64 {
		rho := float64(m.servedAt(reqs, x, dmax) / ceff)
		return x - m.delayCurve(rho)
	}
	lo, hi := 1.0, maxStretch
	// f(a) < 0 <= f(b) = fb. The defaults lie outside [lo, hi] and
	// spare nothing.
	a, b, fb := math.Inf(-1), math.Inf(1), math.Inf(1)
	if m.bracketable {
		a, b, fb = m.bracket(f, reqs, ceff, dmax, lo, hi)
	}
	if lo >= b || (a < lo && f(lo) >= 0) {
		return lo // no contention at all
	}
	if hi <= a || (!(b <= hi && fb > 0) && f(hi) <= 0) {
		return hi // pinned at the cap
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mid <= a || (mid < b && f(mid) < 0) {
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

// bracketTol is the relative half-width of the bracket probed around
// the Newton estimate. It sits well above the estimate's rounding
// error on the calibrated workloads, and far enough below the
// bisection's 1e-9 stop width that a midpoint rarely lands inside.
const bracketTol = 0x1p-40

// bracket certifies a bracket around the root of f on [lo, hi]: it
// returns a, b and fb = f(b) with f(a) < 0 <= fb, where a side it
// could not certify is left at -Inf (a) or +Inf (b, fb). It probes f
// bracketTol either side of the Newton estimate, clamped to [lo, hi];
// each probe certifies the side its sign falls on, and a probe an
// earlier one already settles is skipped. An estimate off by more than
// bracketTol leaves one side open, which costs evaluations, not bits.
func (m *Model) bracket(f func(float64) float64, reqs []Request, ceff, dmax units.Rate, lo, hi float64) (a, b, fb float64) {
	a, b, fb = math.Inf(-1), math.Inf(1), math.Inf(1)
	x := m.equilibrium(reqs, ceff, dmax)
	if math.IsNaN(x) {
		return a, b, fb
	}
	for _, p := range [...]float64{x * (1 - bracketTol), x * (1 + bracketTol)} {
		p = math.Min(math.Max(p, lo), hi)
		if p <= a || p >= b {
			continue
		}
		switch v := f(p); {
		case v < 0:
			a = p
		case v >= 0:
			b, fb = p, v
		}
	}
	return a, b, fb
}

// equilibrium estimates the root of f by safeguarded Newton steps on
// the utilization. At the fixed point rho = served(delay(rho))/ceff,
// and h(rho) = rho - served(delay(rho))/ceff rises with slope >= 1 on
// [0, 1) — served falls as the delay rises — while staying finite
// where f(X) is -Inf (any X whose utilization reaches 1). Steps that
// leave the bracket h(lo) < 0 < h(hi) bisect it instead. The estimate
// is the delay at the final utilization: +Inf when no utilization
// below 1 balances (streams that never stall alone exceed capacity),
// NaN for a NaN request. It needs no rigour: bracket certifies it.
func (m *Model) equilibrium(reqs []Request, ceff, dmax units.Rate) float64 {
	// h(0) = -served(1)/ceff < 0, and h(served(1)/ceff) >= 0 because
	// served never exceeds its X = 1 value, so start there — or, for
	// an overloaded set, at 1 - 2^-5, a stretch near 2.3, where the
	// calibrated ones settle.
	lo, hi := 0.0, 1.0
	rho := math.Min(float64(m.servedAt(reqs, 1, dmax)/ceff), 1-0x1p-5)
	for i := 0; i < 30; i++ {
		x, dx := m.delaySlope(rho)
		s, ds := m.servedSlope(reqs, x, dmax)
		h := rho - float64(s/ceff)
		switch {
		case h < 0:
			lo = rho
		case h > 0:
			hi = rho
		case h == 0:
			return x
		default:
			return h // NaN
		}
		step := -h / (1 - float64(ds/ceff)*dx)
		// Stop once the step moves X by less than 1/64 of the bracket's
		// half-width, or rho by a few ulps.
		if math.Abs(step*dx) <= bracketTol/64*x || math.Abs(step) <= 0x1p-50*rho {
			return x + step*dx
		}
		if rho += step; !(rho > lo && rho < hi) {
			rho = lo + (hi-lo)/2
		}
	}
	x, _ := m.delaySlope(rho)
	return x
}

// delaySlope returns delayCurve(rho) for rho in [0, 1), computed
// through math.Pow(rho, g-1), and its derivative in rho.
func (m *Model) delaySlope(rho float64) (d, dd float64) {
	k, g := queueFactor, curveExponent
	pw := math.Pow(rho, g-1)
	q := 1 / (1 - rho)
	return 1 + k*pw*rho*q, k * pw * (g*(1-rho) + rho) * q * q
}

// servedSlope returns served(x) and its derivative in x, never
// positive: a speed 1/(1 + f*w*(x-1)) falls at f*w*speed^2.
func (m *Model) servedSlope(reqs []Request, x float64, dmax units.Rate) (s, ds units.Rate) {
	for _, r := range reqs {
		if r.Demand <= 0 {
			continue
		}
		sp := m.speedAt(r, x, dmax)
		f, w := m.stallWeight(r, dmax)
		s += r.Demand * units.Rate(sp)
		ds -= r.Demand * units.Rate(f*w*sp*sp)
	}
	return s, ds
}

// bracketable reports whether the f of solveStretch is non-decreasing
// in X as a float64 function, not just as a real one, so that
// f(a) < 0 proves f(x) < 0 for every x <= a and f(b) >= 0 proves
// f(x) >= 0 for every x >= b. The proof rests on the bus constants:
// all finite, ceff > 0, and an integral curveExponent. Follow one
// evaluation of f(x) = x - delayCurve(servedAt(x)/ceff):
//
//   - speedAt: stallWeight's clamped stall fraction s in [0, 1] and
//     weight w = 1 + unfairness*(1 - d/dmax) >= 1 do not depend on x.
//     Each of x-1, (x-1)*w, 1+(x-1)*w, s*xt and (1-s)+s*xt is one
//     correctly rounded operation on a non-decreasing operand and a
//     constant >= 0, and rounding is monotone, so each is
//     non-decreasing; the positive denominator makes the speed 1/den
//     non-increasing.
//   - servedAt adds the terms d*speed (the same requests, d > 0) in a
//     fixed order. Rounded addition is monotone in each operand, so the
//     sum is non-increasing, and so is rho = served/ceff for ceff > 0.
//   - delayCurve is non-decreasing in rho: the clamp at 0 and the +Inf
//     from 1 on are, and below 1 so is 1 + k*rho^g/(1-rho), given that
//     math.Pow(rho, g) is. For an integral g, Go's portable pow (every
//     GOARCH but s390x, which has an assembly Pow) takes the path
//     "x1, xe := Frexp(x)", then multiplies mantissas in [0.5, 1)
//     along the bits of g by successive squarings, renormalizing by
//     exact doublings, and ends in one Ldexp. Each step is a correctly
//     rounded product of non-negative, non-decreasing operands, exact,
//     or (Ldexp into the subnormals) one rounded multiply, so the power
//     is non-decreasing; the loop's exponent guard fires only for
//     inputs small enough that every smaller one fires it too, and the
//     power underflows to 0. (A non-integral g would add
//     Exp(yf*Log(x)), whose monotonicity is not shown here.)
//   - x - delay is then non-decreasing in x.
//
// NaN breaks the order, so it is ruled in or out: a NaN demand or
// stall fraction, or an infinite demand under unfairness, makes f NaN
// at every x, so no probe certifies anything. With finite constants
// the only other NaN is s*xt = 0*Inf once (x-1)*w overflows, which
// then holds for every larger x too: a NaN there takes the hi branch,
// as f >= 0 would, and lies above any certified a.
const bracketable = runtime.GOARCH != "s390x"
