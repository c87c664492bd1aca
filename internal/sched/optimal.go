package sched

import (
	"busaware/internal/bus"
	"busaware/internal/machine"
	"busaware/internal/units"
)

// Optimal implements the paper's future-work proposal: "re-formulate
// the multiprocessor scheduling problem as a multi-parametric
// optimization problem and derive practical model-driven scheduling
// algorithms". Each quantum it enumerates every feasible gang subset
// of the applications list, predicts each subset's aggregate progress
// with the same contention model the machine uses, and runs the
// subset with the best weighted throughput.
//
// Starvation freedom is preserved the same way the paper's policies
// preserve it: the head of the applications list is always part of
// the chosen subset, and subsets are scored with a waiting-time weight
// so long-parked jobs pull their gang in.
//
// The search is exponential in the number of jobs, which is fine at
// the paper's scale (half a dozen jobs on four processors) but makes
// Optimal a reference point rather than a deployable scheduler. It is
// no upper bound: each quantum's subset is the best for that quantum
// alone, and the zoo measures it below Quanta Window (EXPERIMENTS.md,
// "Scheduler comparison"). A true offline bound needs the
// bandwidth-constrained ILP of Eremeev et al. (PAPERS.md).
type Optimal struct {
	numCPUs int
	model   *bus.Model

	list    jobList
	waiting map[*Job]int // quanta since last run

	// lastAllSelected records whether the most recent Schedule call ran
	// every job — the aging- and rotation-free case Stable keys on.
	lastAllSelected bool

	assign assignScratch

	// Per-call scratch, reused so a steady-state Schedule allocates
	// nothing: the candidates and their gang sizes, the subset being
	// priced and the best one so far, score's request vector, weights
	// and grants, and the set of jobs that ran.
	cands   []*Job
	sizes   []int
	subset  []*Job
	best    []*Job
	reqs    []bus.Request
	weights []float64
	grants  []bus.Grant
	ran     map[*Job]bool
}

// newOptimal builds the model-driven reference policy, pricing subsets
// on the paper machine's bus.
func newOptimal(numCPUs int) *Optimal {
	return &Optimal{
		numCPUs: numCPUs,
		model:   bus.New(),
		waiting: make(map[*Job]int),
		ran:     make(map[*Job]bool),
	}
}

// Name implements Scheduler.
func (o *Optimal) Name() string { return "Optimal" }

// Quantum implements Scheduler.
func (o *Optimal) Quantum() units.Time { return DefaultQuantum }

// Add implements Scheduler.
func (o *Optimal) Add(j *Job) {
	o.list.add(j)
	o.waiting[j] = 0
	o.lastAllSelected = false
}

// Remove implements Scheduler.
func (o *Optimal) Remove(j *Job) {
	o.list.remove(j)
	delete(o.waiting, j)
	o.lastAllSelected = false
}

// score predicts the weighted progress of running exactly the given
// subset for one quantum: each thread's modelled speed, weighted by
// how long its job has been waiting (aging prevents starvation of
// low-value gangs).
func (o *Optimal) score(subset []*Job) float64 {
	reqs, weights := o.reqs[:0], o.weights[:0]
	for _, j := range subset {
		w := 1 + float64(o.waiting[j])*0.25
		for _, t := range j.App.Threads {
			if t.Done() {
				continue
			}
			d, f := t.Request()
			reqs = append(reqs, bus.Request{Demand: d, StallFrac: f})
			weights = append(weights, w)
		}
	}
	o.reqs, o.weights = reqs, weights
	if len(reqs) == 0 {
		return 0
	}
	o.grants, _ = o.model.AllocateInto(o.grants, reqs)
	var s float64
	for i, g := range o.grants {
		s += g.Speed * weights[i]
	}
	return s
}

// Schedule implements Scheduler via exhaustive subset search.
func (o *Optimal) Schedule(aff Affinity) []machine.Placement {
	jobs := o.list.all()
	// Runnable jobs with their gang sizes.
	cands, sizes := o.cands[:0], o.sizes[:0]
	for _, j := range jobs {
		if n := runnableThreads(j); n > 0 && n <= o.numCPUs {
			cands = append(cands, j)
			sizes = append(sizes, n)
		}
	}
	o.cands, o.sizes = cands, sizes
	if len(cands) == 0 {
		return nil
	}

	best := o.best[:0]
	bestScore := -1.0
	n := len(cands)
	// Enumerate subsets; cap the width to keep the search bounded even
	// if a caller registers many jobs.
	if n > 16 {
		n = 16
	}
	for mask := 1; mask < 1<<n; mask++ {
		if mask&1 == 0 {
			continue // head of list must run: starvation freedom
		}
		threads, subset := 0, o.subset[:0]
		for i := 0; i < n && threads <= o.numCPUs; i++ {
			if mask&(1<<i) != 0 {
				threads += sizes[i]
				subset = append(subset, cands[i])
			}
		}
		o.subset = subset
		if threads > o.numCPUs {
			continue
		}
		if s := o.score(subset); s > bestScore {
			bestScore = s
			best = append(best[:0], subset...)
		}
	}
	o.best = best

	clear(o.ran)
	for _, j := range best {
		o.ran[j] = true
	}
	for _, j := range cands {
		if o.ran[j] {
			o.waiting[j] = 0
		} else {
			o.waiting[j]++
		}
	}
	o.lastAllSelected = len(best) > 0 && len(best) == o.list.len()
	o.list.rotateToTail(o.ran)
	return assignCPUsInto(&o.assign, best, aff, o.numCPUs)
}
