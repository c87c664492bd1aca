package workload

import (
	"math"
	"math/rand"
	"testing"

	"busaware/internal/units"
)

// refThread is the oracle for Thread's hot state and sibling floor: the
// thread logic as it was before either existed. It always scans the
// siblings and always reads the Profile.
type refThread struct {
	app       *refApp
	phaseIdx  int
	phaseUsed float64
	progress  float64
	debt      float64
}

type refApp struct {
	profile Profile
	threads []*refThread
}

func newRefApp(p Profile) *refApp {
	a := &refApp{profile: p}
	for range p.Threads {
		a.threads = append(a.threads, &refThread{app: a})
	}
	return a
}

func (t *refThread) Done() bool {
	if t.app.profile.Endless() {
		return false
	}
	return t.progress >= float64(t.app.profile.SoloTime)
}

func (t *refThread) CurrentPhase() Phase { return t.app.profile.Phases[t.phaseIdx] }

func (t *refThread) Request() (units.Rate, float64) {
	ph := t.CurrentPhase()
	switch {
	case t.debt > 0:
		return maxRate(ph.Demand, RefillDemand), maxf(ph.StallFrac, RefillStallFrac)
	case t.AtBarrier():
		return SpinDemand, 0
	}
	return ph.Demand, ph.StallFrac
}

func (t *refThread) AtBarrier() bool { return t.barrierCap() == 0 && !t.Done() }

func (t *refThread) barrierCap() float64 {
	interval := t.app.profile.BarrierInterval
	if interval <= 0 || len(t.app.threads) < 2 {
		return math.Inf(1)
	}
	cap := t.minProgress() + float64(interval) - t.progress
	if cap < 0 {
		return 0
	}
	return cap
}

// minProgress is the smallest sibling progress, 0 without siblings.
func (t *refThread) minProgress() float64 {
	min := math.Inf(1)
	for _, th := range t.app.threads {
		if th != t && th.progress < min {
			min = th.progress
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

func (t *refThread) AdvanceWork(soloUsec float64) {
	if soloUsec < 0 {
		soloUsec = 0
	}
	if t.debt > 0 {
		pay := math.Min(t.debt, soloUsec)
		t.debt -= pay
		soloUsec -= pay
	}
	if soloUsec <= 0 || t.Done() {
		return
	}
	if cap := t.barrierCap(); soloUsec > cap {
		soloUsec = cap
	}
	if soloUsec <= 0 {
		return
	}
	t.progress += soloUsec
	t.phaseUsed += soloUsec
	for {
		d := float64(t.CurrentPhase().Duration)
		if t.phaseUsed < d {
			break
		}
		t.phaseUsed -= d
		t.phaseIdx++
		if t.phaseIdx == len(t.app.profile.Phases) {
			t.phaseIdx = 0
		}
	}
}

// randomGang draws a 2–4 thread profile with 1–3 short phases, finite or
// endless, with a barrier in most draws.
func randomGang(rng *rand.Rand) Profile {
	p := Profile{Name: "gang", Threads: 2 + rng.Intn(3)}
	for range 1 + rng.Intn(3) {
		p.Phases = append(p.Phases, Phase{
			Duration:  units.Time(1 + rng.Intn(3000)),
			Demand:    units.Rate(rng.Float64() * 12),
			StallFrac: rng.Float64(),
		})
	}
	if rng.Intn(3) > 0 {
		p.SoloTime = units.Time(2000 + rng.Intn(40000))
	}
	if rng.Intn(5) > 0 {
		p.BarrierInterval = units.Time(1 + rng.Intn(2000))
	}
	return p
}

// sameThread reports the first way th differs from its oracle ref, or "".
// Floats compare by their bits.
func sameThread(th *Thread, ref *refThread) string {
	switch {
	case math.Float64bits(th.progress) != math.Float64bits(ref.progress):
		return "progress"
	case math.Float64bits(th.phaseUsed) != math.Float64bits(ref.phaseUsed):
		return "phaseUsed"
	case th.phaseIdx != ref.phaseIdx:
		return "phaseIdx"
	case math.Float64bits(th.debt) != math.Float64bits(ref.debt):
		return "debt"
	case th.CurrentPhase() != ref.CurrentPhase():
		return "cached phase"
	case th.sibFloor > ref.minProgress():
		return "sibling floor above the siblings' minimum"
	}
	return ""
}

// TestHotStateMatchesScanningOracle drives random gangs through the real
// thread code and the scanning oracle side by side, the way machine.Step
// does (every placed thread's Request, then every placed thread's
// AdvanceWork, in placement order), over random placement subsets, with
// advances of zero, exactly the barrier headroom and past it, injected
// debt, and leap replays. Every answer and, after every call, every
// thread's state must match bit for bit.
func TestHotStateMatchesScanningOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := range 400 {
		p := randomGang(rng)
		app, ref := NewApp(p, "g#1"), newRefApp(p)
		n := p.Threads
		check := func(step int, op string) {
			t.Helper()
			for i := range n {
				if d := sameThread(app.Threads[i], ref.threads[i]); d != "" {
					t.Fatalf("trial %d step %d after %s: thread %d: %s differs (profile %+v)", trial, step, op, i, d, p)
				}
			}
		}
		placed := make([]int, 0, n)
		for step := range 300 {
			placed = placed[:0]
			for i := range n {
				if rng.Intn(4) > 0 {
					placed = append(placed, i)
				}
			}
			rng.Shuffle(len(placed), func(a, b int) { placed[a], placed[b] = placed[b], placed[a] })
			if step > 50 && rng.Intn(40) == 0 {
				i := rng.Intn(n)
				debt := float64(rng.Intn(500)) + rng.Float64()
				app.Threads[i].AddDebt(debt)
				ref.threads[i].debt += debt
				check(step, "AddDebt")
			}
			for _, i := range placed {
				gd, gf := app.Threads[i].Request()
				wd, wf := ref.threads[i].Request()
				if math.Float64bits(float64(gd)) != math.Float64bits(float64(wd)) || math.Float64bits(gf) != math.Float64bits(wf) {
					t.Fatalf("trial %d step %d: thread %d Request = (%v, %v), oracle (%v, %v)", trial, step, i, gd, gf, wd, wf)
				}
				check(step, "Request")
			}
			for _, i := range placed {
				r := ref.threads[i]
				var s float64
				switch rng.Intn(6) {
				case 0: // zero
				case 1: // exactly the barrier headroom
					if c := r.barrierCap(); !math.IsInf(c, 1) {
						s = c
					}
				case 2: // past the headroom
					if c := r.barrierCap(); !math.IsInf(c, 1) {
						s = c + 1 + rng.Float64()*float64(p.BarrierInterval)
					}
				case 3: // the debt and then exactly the headroom
					if c := r.barrierCap(); !math.IsInf(c, 1) {
						s = r.debt + c
					}
				default:
					s = rng.Float64() * 400
				}
				app.Threads[i].AdvanceWork(s)
				r.AdvanceWork(s)
				check(step, "AdvanceWork")
			}
			i := rng.Intn(n)
			th, r := app.Threads[i], ref.threads[i]
			switch rng.Intn(4) {
			case 0:
				if th.AtBarrier() != r.AtBarrier() || th.Done() != r.Done() {
					t.Fatalf("trial %d step %d: thread %d AtBarrier/Done = %v/%v, oracle %v/%v",
						trial, step, i, th.AtBarrier(), th.Done(), r.AtBarrier(), r.Done())
				}
				check(step, "AtBarrier")
			case 1:
				// BarrierHeadroom always scans, and the scan refreshes the
				// floor to the siblings' minimum.
				if g, w := th.BarrierHeadroom(), r.barrierCap(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("trial %d step %d: thread %d BarrierHeadroom = %v, oracle %v", trial, step, i, g, w)
				}
				if !math.IsInf(th.interval, 1) && math.Float64bits(th.sibFloor) != math.Float64bits(r.minProgress()) {
					t.Fatalf("trial %d step %d: thread %d floor %v after a scan, siblings' minimum %v", trial, step, i, th.sibFloor, r.minProgress())
				}
				check(step, "BarrierHeadroom")
			case 2:
				// A leap replay, under the preconditions the event engine
				// establishes: no debt, not done by the end, and strictly
				// inside the barrier headroom. The oracle advances one
				// micro-step at a time.
				subs := make([]float64, 1+rng.Intn(10))
				var sum float64
				for k := range subs {
					subs[k] = rng.Float64() * 300
					sum += subs[k]
				}
				limit := math.Min(r.barrierCap(), float64(p.SoloTime)-r.progress)
				if p.Endless() {
					limit = r.barrierCap()
				}
				if r.debt > 0 || r.Done() || sum*(1+1e-9) >= limit {
					continue
				}
				th.ReplayAdvance(subs)
				for _, s := range subs {
					r.AdvanceWork(s)
				}
				check(step, "ReplayAdvance")
			}
		}
	}
}

// TestSiblingFloorKeepsUp pins what makes the floor pay: in a gang
// stepping in lockstep, each thread's floor trails its progress by at
// most an interval and a micro-step, so most micro-steps decide Request
// and AdvanceWork without a scan. A floor that scans never refresh
// falls ever further behind and makes every micro-step scan. A thread
// that runs into its barrier still spins.
func TestSiblingFloorKeepsUp(t *testing.T) {
	p, _ := ByName("CG") // two threads, 40 ms barrier interval
	app := NewApp(p, "CG#1")
	const sub = 1000.0 // 1 ms of solo progress per micro-step
	for range 200 {
		for _, th := range app.Threads {
			if d, _ := th.Request(); d == SpinDemand {
				t.Fatal("lockstep gang spins")
			}
		}
		for _, th := range app.Threads {
			th.AdvanceWork(sub)
		}
		for _, th := range app.Threads {
			// The floor lags the sibling by at most one interval: every
			// advance within the bound skips the scan, and the first one
			// past it refreshes the floor.
			if lag := th.progress - th.sibFloor; lag > float64(p.BarrierInterval)+sub {
				t.Fatalf("floor lags progress by %v, more than an interval and a micro-step", lag)
			}
		}
	}
	runner := app.Threads[0]
	runner.AdvanceWork(float64(p.BarrierInterval) * 3)
	if !runner.AtBarrier() {
		t.Fatal("a thread a full interval ahead of its sibling must spin")
	}
}
