package gateway

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"sync"
	"time"

	"busaware/internal/server"
)

// The cell ledger is the gateway's one dispatch machine. Every client
// request — a /v1/simulate call is a one-cell request, a /v1/sweep a
// batch — becomes a ledger of cells, and the ledger runs the whole
// resilience ladder over them:
//
//   - Cells are sharded by canonical key; one dispatch carries each
//     backend's share, and each dispatch claims its backend's breaker
//     with Allow exactly once. When every candidate refuses a first
//     offer, the owner is tried anyway.
//   - A first dispatch still unanswered after the hedge delay has its
//     unanswered cells hedged to the next ring node. The first answer
//     per cell wins; a dispatch whose cells were all answered elsewhere
//     is hung up, and a loser's answer that arrives anyway is
//     cross-checked against the winner's digest.
//   - When a dispatch ends, its unanswered cells that no other dispatch
//     covers fail over to the next ring node, paid for by the retry
//     budget; a cell gets at most maxAttempts dispatches. Cells out of
//     attempts or candidates fail, and a spent budget fails them fast.
//   - Each dispatch ends with one breaker verdict: success when it
//     ended cleanly or delivered an answer for every cell it carried,
//     none when the ledger hung it up or the client left, failure
//     otherwise (transport errors, failed digests, retryable statuses,
//     the idle watchdog).
//
// What differs between the endpoints is behind endpoint: how a
// dispatch talks to its backend, and how answers reach the client.

// maxAttempts bounds how many dispatches one cell may ride: the first
// offer plus one hedge or one failover.
const maxAttempts = 2

// errAnswered is the cancel cause of a dispatch the ledger hung up
// because every cell it carries has been answered.
var errAnswered = errors.New("cells answered")

// errNoBackends fails cells that arrive while the ring is empty.
var errNoBackends = errors.New("no backends")

// endpoint is one endpoint's transport and renderer.
type endpoint interface {
	// send runs dispatch d against d.b, handing each answer to
	// l.answer, and returns why the attempt failed (nil if it ended
	// cleanly).
	send(ctx context.Context, l *ledger, d *dispatch) error
	// write delivers cell i's winning answer to the client.
	write(i int, a *answer)
	// fail delivers cell i's failure: 503 when the retry budget
	// refused its failover, 502 otherwise. cause is the last attempt's
	// error, if any.
	fail(i, status int, cause error)
}

// answer is one backend reply for one cell.
type answer struct {
	status int
	// sum identifies the answer's bytes; a loser's answer is checked
	// against the winner's.
	sum string
	b   *backend
	// The endpoint's payload: the relayed response for /v1/simulate,
	// the backend's line for /v1/sweep.
	resp *http.Response
	body []byte
	line server.SweepCellResult
}

// dispatch is one attempt carrying a set of cells to one backend.
type dispatch struct {
	b     *backend
	cells []int // ascending ledger indices
	first bool  // a first offer, which may be hedged
	hedge bool

	ctx    context.Context
	cancel context.CancelCauseFunc
	left   int // carried cells still unanswered (ledger lock)
	got    int // answers this dispatch delivered (ledger lock)
}

type cellState struct {
	answered bool
	hedged   bool
	attempts int
	inflight int
	// status and sum of the winning answer, for the loser cross-check.
	status int
	sum    string
}

// ledger is one client request's cell ledger.
type ledger struct {
	g      *Gateway
	ep     endpoint
	keys   []string
	client context.Context

	mu    sync.Mutex
	cells []cellState
	live  []*dispatch
	open  int
	done  chan struct{} // closed once every cell is answered
	wg    sync.WaitGroup
}

// serve runs one request's cells through the ledger. keys holds each
// cell's canonical key; an empty key marks a cell the endpoint already
// answered. Once every cell is answered, or the client has left, the
// dispatches still running are hung up, and serve returns when they
// have ended.
func (g *Gateway) serve(r *http.Request, ep endpoint, keys []string) {
	l := &ledger{g: g, ep: ep, keys: keys, client: r.Context(),
		cells: make([]cellState, len(keys)), done: make(chan struct{})}
	g.budget.OnRequest(len(keys))
	todo := make([]int, 0, len(keys))
	for i, k := range keys {
		if k == "" {
			l.cells[i].answered = true
			continue
		}
		todo = append(todo, i)
	}
	if l.open = len(todo); l.open == 0 {
		return
	}
	next, refused := l.shard(todo, nil)
	for _, i := range refused {
		l.fail(i, http.StatusBadGateway, errNoBackends)
	}
	for _, d := range next {
		d.first = true
		l.start(d)
	}
	select {
	case <-l.done:
	case <-l.client.Done():
	}
	l.mu.Lock()
	for _, d := range l.live {
		d.cancel(errAnswered)
	}
	l.mu.Unlock()
	l.wg.Wait()
}

// shard groups cells by the backend each is offered to next: the first
// of its ring candidates, other than avoid, whose breaker allows a
// dispatch. Allow is claimed once per backend, so each returned
// dispatch holds one claim. A first offer (avoid == nil) nobody allows
// goes to the cell's owner anyway; refused holds the cells left with
// no candidate at all.
func (l *ledger) shard(cells []int, avoid *backend) (next []*dispatch, refused []int) {
	type claim struct {
		b  *backend
		ok bool
	}
	claims := make([]claim, 0, 8)
	for _, i := range cells {
		var to *backend
		route := l.g.route(l.keys[i])
		for _, b := range route {
			if b == avoid {
				continue
			}
			k := 0
			for k < len(claims) && claims[k].b != b {
				k++
			}
			if k == len(claims) {
				claims = append(claims, claim{b, b.breaker.Allow()})
			}
			if claims[k].ok {
				to = b
				break
			}
		}
		if to == nil && avoid == nil && len(route) > 0 {
			to = route[0]
		}
		if to == nil {
			refused = append(refused, i)
			continue
		}
		var d *dispatch
		for _, e := range next {
			if e.b == to {
				d = e
				break
			}
		}
		if d == nil {
			d = &dispatch{b: to}
			next = append(next, d)
		}
		d.cells = append(d.cells, i)
	}
	return next, refused
}

// start registers dispatch d with the ledger and runs it.
func (l *ledger) start(d *dispatch) {
	d.ctx, d.cancel = context.WithCancelCause(l.client)
	l.mu.Lock()
	for _, i := range d.cells {
		c := &l.cells[i]
		c.attempts++
		c.inflight++
		c.hedged = c.hedged || d.hedge
		if !c.answered {
			d.left++
		}
	}
	l.live = append(l.live, d)
	l.mu.Unlock()
	l.wg.Add(1)
	go l.run(d)
}

// run carries dispatch d through its attempt, its hedge, its breaker
// verdict and the failover of what it left unanswered.
func (l *ledger) run(d *dispatch) {
	defer l.wg.Done()
	var hedge *time.Timer
	var fired chan struct{}
	if d.first && len(l.g.cluster.Load().backends) > 1 {
		if delay := l.g.hedgeDelay(); delay > 0 {
			fired = make(chan struct{})
			hedge = time.AfterFunc(delay, func() {
				defer close(fired)
				l.hedge(d)
			})
		}
	}
	d.b.inflight.Add(1)
	err := l.ep.send(d.ctx, l, d)
	d.b.inflight.Add(-1)
	if hedge != nil && !hedge.Stop() {
		<-fired // the hedge is registered before this dispatch settles
	}
	l.mu.Lock()
	success := err == nil || d.got >= len(d.cells)
	l.mu.Unlock()
	switch {
	case success:
		d.b.breaker.OnSuccess()
	case errors.Is(context.Cause(d.ctx), errAnswered) || l.client.Err() != nil:
		// Hung up because its cells were answered elsewhere, or the
		// client left: no verdict on the backend.
		d.b.breaker.OnCancel()
	default:
		d.b.breaker.OnFailure()
		if isDialError(err) {
			// Nothing is listening: eject now, the prober re-admits it.
			d.b.healthy.Store(false)
		}
	}
	d.cancel(nil)
	l.failover(d, err)
}

// hedge offers the still-unanswered cells of first dispatch d to their
// next ring node.
func (l *ledger) hedge(d *dispatch) {
	var pending []int
	l.mu.Lock()
	for _, i := range d.cells {
		if c := l.cells[i]; !c.answered && c.attempts < maxAttempts && l.client.Err() == nil {
			pending = append(pending, i)
		}
	}
	l.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	next, _ := l.shard(pending, d.b)
	if !l.spend(next) {
		return
	}
	l.g.metrics.hedgesLaunched.Add(1)
	for _, e := range next {
		e.hedge = true
		l.start(e)
	}
}

// failover settles dispatch d's cells: cells it leaves unanswered and
// uncovered fail over to their next ring node while they have attempts
// left, and fail otherwise. err is why d failed.
func (l *ledger) failover(d *dispatch, err error) {
	var retry, spent []int
	l.mu.Lock()
	l.live = slices.DeleteFunc(l.live, func(e *dispatch) bool { return e == d })
	for _, i := range d.cells {
		c := &l.cells[i]
		c.inflight--
		switch {
		case c.answered || c.inflight > 0:
		case c.attempts < maxAttempts && l.client.Err() == nil:
			retry = append(retry, i)
		default:
			spent = append(spent, i)
		}
	}
	l.mu.Unlock()
	next, refused := l.shard(retry, d.b)
	for _, i := range append(spent, refused...) {
		l.fail(i, http.StatusBadGateway, err)
	}
	if len(next) == 0 {
		return
	}
	if !l.spend(next) {
		for _, e := range next {
			for _, i := range e.cells {
				l.fail(i, http.StatusServiceUnavailable, err)
			}
		}
		return
	}
	for _, e := range next {
		l.start(e)
	}
	n := uint64(len(retry) - len(refused))
	d.b.failovers.Add(n)
	l.g.metrics.failovers.Add(n)
}

// spend pays the retry budget for re-sending the dispatches in next,
// one unit per cell, all or nothing. A refusal releases the breaker
// claims they hold.
func (l *ledger) spend(next []*dispatch) bool {
	n := 0
	for _, d := range next {
		n += len(d.cells)
	}
	if n > 0 && l.g.budget.TryRetry(n) {
		return true
	}
	for _, d := range next {
		d.b.breaker.OnCancel()
	}
	return false
}

// answer records a's answer for cell i, delivered by dispatch d. The
// first answer per cell is written to the client, and any other
// dispatch left with no unanswered cell is hung up; a later one is
// cross-checked against the winner. Byte-identity across backends is
// an invariant (they replay cached bodies byte-identically), so a
// divergence means corruption slipped past a digest or a backend broke
// the determinism contract.
func (l *ledger) answer(d *dispatch, i int, a *answer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d.got++
	c := &l.cells[i]
	if c.answered {
		if a.status == http.StatusOK && c.status == http.StatusOK && a.sum != c.sum {
			l.g.metrics.hedgeMismatches.Add(1)
		}
		return
	}
	if c.hedged {
		if d.hedge {
			l.g.metrics.hedgeWins.Add(1)
		} else {
			l.g.metrics.hedgePrimaryWins.Add(1)
		}
	}
	c.status, c.sum = a.status, a.sum
	for _, e := range l.live {
		if _, ok := slices.BinarySearch(e.cells, i); ok {
			if e.left--; e.left == 0 && e != d {
				e.cancel(errAnswered)
			}
		}
	}
	l.settle(i)
	l.ep.write(i, a)
}

// fail delivers cell i's failure unless it was answered meanwhile.
func (l *ledger) fail(i, status int, cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cells[i].answered {
		return
	}
	l.cells[i].status = status
	l.settle(i)
	l.ep.fail(i, status, cause)
}

// settle marks cell i answered (caller holds the lock).
func (l *ledger) settle(i int) {
	l.cells[i].answered = true
	if l.open--; l.open == 0 {
		close(l.done)
	}
}
