package sched

import (
	"math"

	"busaware/internal/machine"
	"busaware/internal/units"
)

// Estimator selects how a bandwidth-aware policy estimates each
// application's bus bandwidth per thread.
type Estimator int

// The estimator variants.
const (
	// EstLatest uses the last quantum's sample only — the paper's
	// "Latest Quantum" policy.
	EstLatest Estimator = iota
	// EstWindow uses a moving-window average — "Quanta Window".
	EstWindow
	// EstEWMA uses an exponentially weighted average — the refinement
	// the paper suggests for longer windows.
	EstEWMA
	// EstOracle reads the true instantaneous demand from the workload
	// model — clairvoyant estimates for ablation only. It is no upper
	// bound: the loop stays a greedy per-quantum pairing, and the zoo
	// measures it below Quanta Window (EXPERIMENTS.md, "Scheduler
	// comparison").
	EstOracle
	// EstNone estimates nothing: every job reads zero, every fitness
	// value ties and the loop selects first-fit in list order — gang
	// round-robin, the ablation without the bandwidth-driven pairing.
	// It isolates how much of the improvement comes from gang
	// scheduling itself versus from the pairing. The bus budget the
	// loop reads cannot move its selection: allocatedBW stays 0, so
	// every fitting candidate scores the same Fitness(C/free, 0) and
	// the strict > keeps the first in list order, and under
	// Params.Guard 0 <= remaining + C*slack holds for every C >= 0.
	EstNone
)

// BandwidthAware implements the paper's Section 4 algorithm: gang-like
// allocation driven by the proximity between each application's bus
// bandwidth per thread and the available bus bandwidth per unallocated
// processor. The policies of the family differ only in the Estimator;
// with EstNone the same loop is gang round-robin.
type BandwidthAware struct {
	name      string
	quantum   units.Time
	numCPUs   int
	estimator Estimator
	windowLen int
	guard     bool
	staleK    int

	list jobList

	// lastAllSelected records whether the most recent Schedule call
	// selected every job on the list — the rotation-preserving case the
	// Stable contract keys on. Add and Remove invalidate it.
	lastAllSelected bool

	// Selection scratch, reused every quantum. The selection loop is
	// O(n²) fitness probes; caching each job's estimator value (and
	// runnable-thread count and degradation flag) here once per
	// Schedule call keeps every probe O(1) and the loop allocation-
	// free. Valid only within one Select call.
	est      []units.Rate
	nThreads []int
	degr     []bool
	chosen   []bool
	selected []*Job
	ran      map[*Job]bool
	assign   assignScratch

	// blind records whether the last Select was estimate-blind: no
	// traversal step after the head had two non-degraded candidates
	// to rank (see Stable).
	blind bool
}

// Params tunes a policy of the bandwidth-aware family (latest, window,
// ewma, oracle and gang) as one plain, comparable value: each zero
// field keeps the paper's setting, so Params{} is the configuration
// the paper evaluates, and two equal Params build the same scheduler.
// It reaches a scheduler only through New; the other policies ignore
// it.
type Params struct {
	// Quantum overrides the 200 ms DefaultQuantum when positive.
	Quantum units.Time
	// Window overrides the sample-window length when at least 1
	// (Quanta Window uses DefaultWindow, the other policies 1).
	Window int
	// Guard enables an optional refinement over the paper's selection
	// loop: candidates whose whole-gang demand overshoots the remaining
	// bus budget (plus DefaultOvercommitSlack) are excluded from the
	// fitness pass, and when nothing fits the policy pairs like with
	// like — concentrating unavoidable saturation on jobs that are
	// bus-bound anyway. The experiments ship with the literal paper
	// algorithm; the guard is an ablation (see EXPERIMENTS.md), useful
	// when antagonists should be segregated strictly.
	Guard bool
	// StaleQuanta, when positive, enables graceful degradation under
	// telemetry loss with horizon K = StaleQuanta: a job that runs for
	// K consecutive quanta without delivering a fresh bandwidth sample
	// is treated as *degraded* — its held estimate is considered
	// garbage rather than scheduled on. Degraded jobs compete in plain
	// applications-list order (Linux-like round-robin fairness) after
	// the fresh jobs have been placed by fitness, and when every job is
	// degraded the selection loop degenerates to bandwidth-oblivious
	// gang round-robin. Admission never stalls: a degraded job is
	// always an eligible candidate, so the loop fails soft toward the
	// baseline instead of deadlocking or pairing jobs on stale numbers.
	//
	// Zero or negative disables it: the stock policies hold the last
	// estimate forever, exactly as the paper specifies.
	StaleQuanta int
}

// DefaultOvercommitSlack is the fraction of bus capacity by which a
// candidate may overshoot the remaining budget and still count as
// fitting under Params.Guard. Mild overcommitment (a few percent
// beyond sustainable bandwidth) costs almost nothing — the contention
// curve is flat until deep saturation — while rejecting it would
// needlessly halve the CPU share of applications that almost fit next
// to their own twin.
const DefaultOvercommitSlack = 0.13

// DefaultStaleQuanta is the stale-fallback horizon K the degradation
// experiment sets in Params.StaleQuanta: a job's last-known BBW
// estimate is held for up to K consecutive scheduled-but-unsampled
// quanta before the policy stops trusting it.
const DefaultStaleQuanta = 4

// DefaultQuantum is the CPU manager's quantum: 200 ms, twice the Linux
// quantum (the paper found 100 ms caused scheduling conflicts with the
// kernel).
const DefaultQuantum = 200 * units.Millisecond

// DefaultWindow is the Quanta Window length the paper evaluates: 5
// samples, which bounds the average distance between the observed
// transaction pattern and the moving average to ~5% for irregular
// applications.
const DefaultWindow = 5

// ewmaWeight is the EWMA estimator's weight on the newest sample.
const ewmaWeight = 0.4

// newBandwidthAware builds a policy of the family for numCPUs
// processors and applies p's non-zero fields.
func newBandwidthAware(name string, est Estimator, window, numCPUs int, p Params) *BandwidthAware {
	b := &BandwidthAware{
		name:      name,
		quantum:   DefaultQuantum,
		numCPUs:   numCPUs,
		estimator: est,
		windowLen: window,
		guard:     p.Guard,
	}
	if p.Quantum > 0 {
		b.quantum = p.Quantum
	}
	if p.Window >= 1 {
		b.windowLen = p.Window
	}
	if p.StaleQuanta > 0 {
		b.staleK = p.StaleQuanta
	}
	return b
}

// Name implements Scheduler.
func (b *BandwidthAware) Name() string { return b.name }

// Quantum implements Scheduler.
func (b *BandwidthAware) Quantum() units.Time { return b.quantum }

// Add implements Scheduler. JobFor builds jobs with a window sized
// for this policy.
func (b *BandwidthAware) Add(j *Job) {
	b.list.add(j)
	b.lastAllSelected = false
}

// Remove implements Scheduler.
func (b *BandwidthAware) Remove(j *Job) {
	b.list.remove(j)
	b.lastAllSelected = false
}

// Jobs exposes the current applications list order (head first), for
// tests and introspection.
func (b *BandwidthAware) Jobs() []*Job { return b.list.all() }

// degraded reports whether j's estimate has gone stale beyond the
// fallback horizon. Always false when the fallback is disabled.
func (b *BandwidthAware) degraded(j *Job) bool {
	return b.staleK > 0 && j.StaleQuanta() >= b.staleK
}

// estimate returns BBW/thread for job j under this policy's estimator.
func (b *BandwidthAware) estimate(j *Job) units.Rate {
	switch b.estimator {
	case EstLatest:
		return j.LatestRate()
	case EstWindow:
		return j.WindowRate()
	case EstEWMA:
		return j.EWMARate()
	case EstOracle:
		return j.TrueRate()
	case EstNone:
		return 0
	default:
		return j.LatestRate()
	}
}

// Fitness implements Equation 1/2 of the paper: the proximity between
// an application's bandwidth per thread and the available bandwidth
// per unallocated processor.
func Fitness(abbwPerProc, bbwPerThread units.Rate) float64 {
	return 1000 / (1 + math.Abs(float64(abbwPerProc-bbwPerThread)))
}

// Select runs the selection loop and returns the applications to run
// next quantum, in allocation order. Exposed for tests; most callers
// use Schedule.
//
// The loop follows the paper: the head of the applications list is
// allocated by default (starvation freedom), then repeated list
// traversals pick the fittest application by Equation 1/2 until the
// processors run out.
//
// By default every candidate competes on the fitness metric alone,
// exactly as the paper specifies. Note that the metric only behaves as
// the paper describes when the estimates approximate bandwidth
// *requirements*: raw consumption samples deflate under contention
// until every job measures alike and the policies lose to Linux (the
// sampling ablation in EXPERIMENTS.md quantifies this). An optional
// saturation guard (Params.Guard) additionally excludes candidates
// that would overshoot the remaining bus budget, and an optional stale
// fallback (Params.StaleQuanta) demotes jobs whose estimates went
// stale to round-robin admission.
// The returned slice aliases internal scratch and is valid until the
// next Select or Schedule call.
func (b *BandwidthAware) Select() []*Job {
	jobs := b.list.all()
	// Cache each job's estimator value, runnable-thread count and
	// degradation flag once: none of them can change during the
	// selection (samples arrive only between quanta), and the window
	// estimators cost O(W) per evaluation while the loop below probes
	// each candidate once per free processor.
	b.est = b.est[:0]
	b.nThreads = b.nThreads[:0]
	b.degr = b.degr[:0]
	b.chosen = b.chosen[:0]
	for _, j := range jobs {
		b.est = append(b.est, b.estimate(j))
		b.nThreads = append(b.nThreads, runnableThreads(j))
		b.degr = append(b.degr, b.degraded(j))
		b.chosen = append(b.chosen, false)
	}
	selected := b.selected[:0]
	freeCPUs := b.numCPUs
	allocatedThreads := 0
	var allocatedBW units.Rate

	// The application at the top of the list is allocated by default:
	// this guarantees freedom from bandwidth starvation.
	for i, j := range jobs {
		n := b.nThreads[i]
		if n == 0 || n > freeCPUs {
			continue
		}
		selected = append(selected, j)
		b.chosen[i] = true
		freeCPUs -= n
		allocatedThreads += n
		if !b.degr[i] {
			allocatedBW += b.est[i] * units.Rate(n)
		}
		break
	}

	b.blind = true
	for freeCPUs > 0 {
		remaining := units.SustainedBusRate - allocatedBW
		abbwPerProc := remaining / units.Rate(freeCPUs)
		best := -1
		bestFit := -1.0
		fallback := -1
		fallbackFit := -1.0
		// rrPick is the first degraded candidate in list order: a job
		// whose estimate went stale beyond the fallback horizon is not
		// scheduled on garbage, but stays admissible round-robin style
		// so the admission loop degrades gracefully instead of
		// starving it or deadlocking.
		rrPick := -1
		ranked := 0
		var allocAvg units.Rate
		if allocatedThreads > 0 {
			allocAvg = allocatedBW / units.Rate(allocatedThreads)
		}
		for i := range jobs {
			if b.chosen[i] {
				continue
			}
			n := b.nThreads[i]
			if n == 0 || n > freeCPUs {
				continue
			}
			if b.degr[i] {
				if rrPick < 0 {
					rrPick = i
				}
				continue
			}
			ranked++
			est := b.est[i]
			fits := !b.guard || est*units.Rate(n) <= remaining+units.SustainedBusRate*DefaultOvercommitSlack
			if fits {
				if fit := Fitness(abbwPerProc, est); fit > bestFit {
					bestFit = fit
					best = i
				}
			} else if fit := Fitness(allocAvg, est); fit > fallbackFit {
				fallbackFit = fit
				fallback = i
			}
		}
		if ranked > 1 {
			b.blind = false
		}
		if best < 0 {
			best = fallback
		}
		if best < 0 {
			best = rrPick
		}
		if best < 0 {
			break
		}
		n := b.nThreads[best]
		selected = append(selected, jobs[best])
		b.chosen[best] = true
		freeCPUs -= n
		allocatedThreads += n
		if !b.degr[best] {
			allocatedBW += b.est[best] * units.Rate(n)
		}
	}
	b.selected = selected[:0]
	return selected
}

// Schedule implements Scheduler: select applications, rotate them to
// the list tail, and lay their threads out with affinity preserved.
// The returned placements alias internal scratch and are valid until
// the next Schedule call.
func (b *BandwidthAware) Schedule(aff Affinity) []machine.Placement {
	if b.staleK > 0 {
		for _, j := range b.list.all() {
			j.settleQuantum()
		}
	}
	selected := b.Select()
	b.lastAllSelected = len(selected) > 0 && len(selected) == b.list.len()
	if b.ran == nil {
		b.ran = make(map[*Job]bool, len(selected))
	} else {
		clear(b.ran)
	}
	for i, j := range selected {
		b.ran[j] = true
		j.rank = i
		if b.staleK > 0 {
			j.noteScheduled()
		}
	}
	b.list.rotateToTail(b.ran)
	return assignCPUsInto(&b.assign, selected, aff, b.numCPUs)
}
