package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"busaware/internal/sim"
)

// PoolResult is the outcome of one cell executed by a Pool, delivered
// on the channel TrySubmit returns.
type PoolResult struct {
	Result sim.Result
	Stat   CellStat
	Err    error
}

// Pool is the runner's one worker loop: a fixed set of workers
// draining a bounded submission queue. Run submits a whole batch to a
// Pool whose queue holds it; the smpsimd daemon keeps one Pool for
// cells that arrive over time. The queue bound is the admission-control
// point — TrySubmit refuses instead of blocking when it is full, so an
// overloaded server can shed load (HTTP 429) rather than queue without
// bound.
//
// Cells are independent and the simulator is deterministic, so a
// cell's result does not depend on which worker runs it or on what
// else is in flight.
type Pool struct {
	jobs     chan poolJob
	wg       sync.WaitGroup
	workers  int
	queueCap int

	busy      atomic.Int64
	peak      atomic.Int64 // most workers ever busy at once
	completed atomic.Int64

	// mu makes Close's channel close mutually exclusive with
	// TrySubmit's channel send; submissions only hold the read side, so
	// they do not serialize against each other.
	mu     sync.RWMutex
	closed bool
}

type poolJob struct {
	cell Cell
	out  chan<- PoolResult
}

// NewPool starts workers goroutines (<= 0 selects GOMAXPROCS) over a
// submission queue of depth queue (<= 0 selects 2x workers). Close
// must be called to release the workers.
func NewPool(workers, queue int) *Pool {
	w := Workers(workers)
	if queue <= 0 {
		queue = 2 * w
	}
	p := &Pool{
		jobs:     make(chan poolJob, queue),
		workers:  w,
		queueCap: queue,
	}
	for g := 0; g < w; g++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				cur := p.busy.Add(1)
				for pk := p.peak.Load(); cur > pk; pk = p.peak.Load() {
					if p.peak.CompareAndSwap(pk, cur) {
						break
					}
				}
				t0 := time.Now()
				res, err := j.cell.run()
				if err != nil {
					err = fmt.Errorf("runner: cell %s: %w", j.cell.Label, err)
				}
				stat := CellStat{
					Label:          j.cell.Label,
					Wall:           time.Since(t0),
					Quanta:         res.Quanta,
					SimTime:        res.EndTime,
					BusUtilization: res.MeanBusUtilization,
					Err:            err,
				}
				p.busy.Add(-1)
				p.completed.Add(1)
				// The result channel is buffered (TrySubmit allocates it
				// with capacity 1), so delivery never blocks the worker
				// even when the submitter gave up on a deadline.
				j.out <- PoolResult{Result: res, Stat: stat, Err: err}
			}
		}()
	}
	return p
}

// TrySubmit offers a cell to the pool without blocking. It returns the
// channel the result will be delivered on, or ok == false when the
// queue is full (the caller should shed the request). After Close,
// TrySubmit always refuses.
func (p *Pool) TrySubmit(c Cell) (<-chan PoolResult, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, false
	}
	out := make(chan PoolResult, 1)
	select {
	case p.jobs <- poolJob{cell: c, out: out}:
		return out, true
	default:
		return nil, false
	}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// QueueCap returns the submission queue's bound.
func (p *Pool) QueueCap() int { return p.queueCap }

// QueueDepth returns the number of cells admitted but not yet picked
// up by a worker.
func (p *Pool) QueueDepth() int { return len(p.jobs) }

// Busy returns the number of workers currently executing a cell.
func (p *Pool) Busy() int { return int(p.busy.Load()) }

// Completed returns the number of cells the pool has finished.
func (p *Pool) Completed() int64 { return p.completed.Load() }

// Close stops admissions, drains cells already admitted, and waits for
// the workers to exit. Results of drained cells are still delivered on
// their channels. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
