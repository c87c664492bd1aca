package sched

import (
	"math/rand"

	"busaware/internal/machine"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Linux approximates the Linux 2.4 scheduler the paper compares
// against: a global runqueue of threads with per-epoch time-slice
// counters and a strong cache-affinity bonus (goodness()-style), and
// no notion of gangs or bus bandwidth.
//
// Per epoch every runnable thread holds a counter of quanta; each
// quantum, every processor greedily picks the highest-goodness
// runnable thread, where goodness is the remaining counter plus a
// large bonus for the processor the thread last ran on. When all
// counters are spent the epoch ends and counters are refilled. The
// runqueue is shuffled (deterministically, from the scheduler's seed)
// at each epoch boundary to model the arrival nondeterminism that makes
// the real Linux mix applications arbitrarily — including the
// pathological co-schedules of one application thread with three BBMA
// instances that the paper describes.
type Linux struct {
	numCPUs int
	rng     *rand.Rand

	// queue is the runqueue in its current order, shuffled per epoch.
	// counters[i] is queue[i]'s epoch counter; the two move together.
	queue    []*workload.Thread
	counters []int
	// Per-Schedule scratch parallel to queue: skip[i] marks queue[i]
	// as finished or already placed by this call, lastCPU[i] is where
	// it last ran.
	skip    []bool
	lastCPU []int
	// placements is Schedule's result buffer, reused every call.
	placements []machine.Placement
}

// LinuxQuantum is the baseline's time slice: the paper states the CPU
// manager's 200 ms quantum is "twice the quantum of the Linux
// scheduler".
const LinuxQuantum = 100 * units.Millisecond

// epochTicks is the counter refill per thread per epoch.
const epochTicks = 2

// affinityBonus biases a processor toward its previous occupant, as
// PROC_CHANGE_PENALTY does in the 2.4 goodness() function. Under heavy
// multiprogramming 2.4's global-runqueue design still migrated threads
// frequently (an idle processor steals whatever is runnable), which the
// paper leans on when it attributes LU CB's and Water-nsqr's slowdowns
// to migrations; a modest bonus reproduces that regime.
const affinityBonus = 1

// newLinux builds the baseline for numCPUs processors with a
// deterministic seed.
func newLinux(numCPUs int, seed int64) *Linux {
	return &Linux{numCPUs: numCPUs, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Scheduler.
func (l *Linux) Name() string { return "Linux" }

// Quantum implements Scheduler.
func (l *Linux) Quantum() units.Time { return LinuxQuantum }

// Add implements Scheduler.
func (l *Linux) Add(j *Job) {
	for _, t := range j.App.Threads {
		l.queue = append(l.queue, t)
		l.counters = append(l.counters, epochTicks)
	}
}

// Remove implements Scheduler.
func (l *Linux) Remove(j *Job) {
	kept := 0
	for i, t := range l.queue {
		if t.App != j.App {
			l.queue[kept] = t
			l.counters[kept] = l.counters[i]
			kept++
		}
	}
	clear(l.queue[kept:])
	l.queue = l.queue[:kept]
	l.counters = l.counters[:kept]
}

// Schedule implements Scheduler.
func (l *Linux) Schedule(aff Affinity) []machine.Placement {
	// Epoch boundary: refill when every runnable thread is out of
	// counter.
	spent := true
	anyRunnable := false
	for i, t := range l.queue {
		if t.Done() {
			continue
		}
		anyRunnable = true
		if l.counters[i] > 0 {
			spent = false
			break
		}
	}
	if !anyRunnable {
		return nil
	}
	if spent {
		for i, t := range l.queue {
			if !t.Done() {
				l.counters[i] = l.counters[i]/2 + epochTicks
			}
		}
		l.rng.Shuffle(len(l.queue), func(i, j int) {
			l.queue[i], l.queue[j] = l.queue[j], l.queue[i]
			l.counters[i], l.counters[j] = l.counters[j], l.counters[i]
		})
	}

	// Neither whether a thread finished nor where it last ran changes
	// within the call, so both are read once per thread, not per CPU.
	l.skip, l.lastCPU = l.skip[:0], l.lastCPU[:0]
	for i, t := range l.queue {
		done, last := t.Done(), -1
		if aff != nil && !done && l.counters[i] > 0 {
			last = aff.LastCPU(t)
		}
		l.skip = append(l.skip, done)
		l.lastCPU = append(l.lastCPU, last)
	}
	placements := l.placements[:0]
	for cpu := 0; cpu < l.numCPUs; cpu++ {
		best := -1
		bestGoodness := -1
		for i, c := range l.counters {
			if l.skip[i] || c <= 0 {
				continue
			}
			g := c
			if l.lastCPU[i] == cpu {
				g += affinityBonus
			}
			if g > bestGoodness {
				bestGoodness = g
				best = i
			}
		}
		if best < 0 {
			continue
		}
		l.skip[best] = true
		l.counters[best]--
		placements = append(placements, machine.Placement{Thread: l.queue[best], CPU: cpu})
	}
	l.placements = placements
	return placements
}
