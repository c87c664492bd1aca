package cpumanager

import (
	"errors"
	"sort"
	"sync"

	"busaware/internal/sched"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Director closes the loop between a Manager and a scheduling policy:
// each quantum it reads every session's shared arena, feeds the
// per-thread bandwidth samples to the policy, runs the selection, and
// enforces the outcome with block/unblock signals. It is the
// "scheduling brain" of the user-level CPU manager — cmd/cpumgr wires
// it to live clients, and the tests drive it with synthetic sessions.
type Director struct {
	mgr    *Manager
	policy sched.Scheduler

	mu   sync.Mutex
	jobs map[uint64]*sched.Job
	now  units.Time
}

// NewDirector builds a director enforcing the given policy over the
// manager's sessions.
func NewDirector(mgr *Manager, policy sched.Scheduler) (*Director, error) {
	if mgr == nil || policy == nil {
		return nil, errors.New("cpumanager: director needs a manager and a policy")
	}
	return &Director{
		mgr:    mgr,
		policy: policy,
		jobs:   make(map[uint64]*sched.Job),
	}, nil
}

// Admitted is the outcome of one Tick: the sessions unblocked for the
// coming quantum, in allocation order.
type Admitted struct {
	Sessions []*Session
	// Blocked counts the sessions signalled to stop.
	Blocked int
	// Reaped counts the sessions reclaimed this quantum because their
	// application went silent past the manager's reap timeout.
	Reaped int
}

// Tick runs one scheduling quantum: reap dead sessions, sample arenas,
// select, signal.
func (d *Director) Tick() Admitted {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now += d.policy.Quantum()

	var out Admitted
	out.Reaped = len(d.mgr.Reap(d.now))

	sessions := d.mgr.Sessions()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })

	// Register new sessions, drop dead ones.
	live := make(map[uint64]bool, len(sessions))
	for _, s := range sessions {
		live[s.ID] = true
		if _, ok := d.jobs[s.ID]; ok {
			continue
		}
		s.Touch(d.now)
		// The placeholder App carries the gang size and a zero demand:
		// an externally-managed application's bandwidth reaches the
		// policy only as arena samples, and its threads never finish.
		p := workload.Profile{
			Name:    s.Instance,
			Threads: s.Threads(),
			Phases:  []workload.Phase{{Duration: units.Second, Demand: 0}},
		}
		j := sched.JobFor(d.policy, workload.NewApp(p, s.Instance))
		d.jobs[s.ID] = j
		d.policy.Add(j)
	}
	for id, j := range d.jobs {
		if !live[id] {
			d.policy.Remove(j)
			delete(d.jobs, id)
		}
	}

	// Sample arenas: only fresh pages contribute (a blocked
	// application publishes nothing, so its last estimate persists —
	// the paper's "statistics for all running jobs" rule). A fresh
	// publish is also proof of life for the reaper.
	byApp := make(map[*workload.App]*Session, len(sessions))
	for _, s := range sessions {
		j := d.jobs[s.ID]
		byApp[j.App] = s
		if rate, epoch, _ := s.Arena.Read(); epoch > 0 && s.Arena.FreshAt(d.now) {
			s.Touch(d.now)
			if n := s.Threads(); n > 0 {
				j.PushSample(rate / units.Rate(n))
			}
		}
	}

	// One Schedule call selects the sessions to admit and rotates them
	// to the list tail. Without affinity it lays each selected gang's
	// threads out together, in selection order.
	admitted := make(map[*Session]bool, len(sessions))
	for _, p := range d.policy.Schedule(nil) {
		if s := byApp[p.Thread.App]; s != nil && !admitted[s] {
			admitted[s] = true
			out.Sessions = append(out.Sessions, s)
		}
	}
	for _, s := range sessions {
		if admitted[s] {
			d.mgr.Unblock(s)
		} else {
			d.mgr.Block(s)
			out.Blocked++
		}
	}
	return out
}
