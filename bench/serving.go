package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"busaware"
	"busaware/internal/server"
)

// Numbers of the workloads that mint request seeds; each owns a
// disjoint range of them.
const (
	wCold = iota + 1
	wWarm
)

// cellSeed is the request seed of cell j of workload w under the
// benchmark seed. Workload w owns [(w+1)·2^56, (w+2)·2^56) and each
// benchmark seed, taken modulo 2^32, a 2^24-cell slice of it, so no two
// workloads or seeds share a cache key.
func cellSeed(w int, seed int64, j int) int64 {
	return int64(w+1)<<56 | int64(uint32(seed))<<24 | int64(j)
}

// maxStreamCells is the size of one seed's slice of a workload's range.
const maxStreamCells = 1 << 24

// cellStream is a workload's cells: the Figure 2 grid in a seeded
// order, cycled, each cell under its own request seed, so every cell of
// the stream is distinct.
type cellStream struct {
	w    int
	seed int64
	grid []server.Request
	perm []int
	rng  *rand.Rand // the workload's other seeded choices
}

func newCellStream(w int, seed int64) *cellStream {
	rng := rand.New(rand.NewSource(cellSeed(w, seed, 0)))
	grid := universe()
	return &cellStream{w: w, seed: seed, grid: grid, perm: rng.Perm(len(grid)), rng: rng}
}

func (c *cellStream) cell(j int) server.Request {
	r := c.grid[c.perm[j%len(c.grid)]]
	r.Seed = cellSeed(c.w, c.seed, j)
	return r
}

func (c *cellStream) cells(n int) []server.Request {
	out := make([]server.Request, n)
	for j := range out {
		out[j] = c.cell(j)
	}
	return out
}

func marshalCells(reqs []server.Request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i], _ = json.Marshal(r) // a Request of plain fields always marshals
	}
	return out
}

func digestOf(name string, bodies [][]byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", name)
	for _, b := range bodies {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// classes counts served responses by X-Cache class.
type classes struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *classes) add(class string, k int) {
	c.mu.Lock()
	if c.n == nil {
		c.n = map[string]int{}
	}
	c.n[class] += k
	c.mu.Unlock()
}

func (c *classes) counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.n))
	for k, v := range c.n {
		out["x_cache."+k] = v
	}
	return out
}

// serving is what the serving-plane workloads share: the stack, the
// working set and its reference bodies, the counters at the start of
// the window and the response classes.
type serving struct {
	e      *env
	cells  *cellStream
	st     *stack
	set    []server.Request // the working set; on cold_cells, the checked sample
	refs   []rendered       // the set's reference renderings
	before counters
	classes
}

// setup opens a stack and computes the working set one /v1/simulate at
// a time through the gateway, which stores every cell in every tier.
// One cell at a time keeps set-up on one vCPU, as the window is.
// Warming with /v1/sweep batches, computed on both servers at once, took
// 0.54 s in some runs and 1.24 s in others.
func (s *serving) setup() (err error) {
	if s.st, err = openStack(s.e.dir, s.e.tr); err != nil {
		return err
	}
	for _, body := range marshalCells(s.set) {
		if _, _, err := s.st.simulate(body, -1); err != nil {
			return err
		}
	}
	return nil
}

func (s *serving) teardown() {
	if s.st != nil {
		s.st.close()
		s.st = nil
	}
}

func (s *serving) prepare() (err error) {
	s.refs, err = renderAll(s.set, busaware.EngineQuantum)
	return err
}

func (s *serving) begin() (err error) {
	s.before, err = s.st.counters()
	return err
}

// check has nothing left to do where op checks every output.
func (s *serving) check() (int, error) { return 0, nil }

// traceOp is the operation number to trace a request as, or -1.
func traceOp(n int64, traced bool) int64 {
	if traced {
		return n
	}
	return -1
}

// layerSample bounds the cells the per-layer timings run on.
const layerSample = 256

// layers reports the span ledger, the window's tier counters, and the
// per-layer timings of (up to layerSample of) the set.
func (s *serving) layers() (map[string]float64, error) {
	after, err := s.st.counters()
	if err != nil {
		return nil, err
	}
	m := s.e.tr.servingLedger()
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	b := s.before
	t1h, t1m := after.t1.Hits-b.t1.Hits, after.t1.Misses-b.t1.Misses
	m["server.t1_hit_ratio"] = ratio(t1h, t1h+t1m)
	m["server.t1_evictions"] = float64(after.t1.Evictions - b.t1.Evictions)
	m["server.cells_computed"] = float64(after.completed - b.completed)
	m["store.puts"] = float64(after.t2Puts - b.t2Puts)
	k := min(len(s.set), layerSample)
	micro, err := measureLayers(s.e.dir, s.set[:k], s.refs[:k], busaware.EngineQuantum)
	if err != nil {
		return nil, err
	}
	for k, v := range micro {
		m[k] = v
	}
	return m, nil
}

// coldCells sends every request for a distinct cell to an empty store,
// so each misses every tier, is computed on the servers' default
// (quantum) engine and is written through to tiers 2 and 3.
type coldCells struct {
	serving
	mu       sync.Mutex
	served   map[int64][]byte
	distinct int
}

func newColdCells(e *env) workload {
	return &coldCells{serving: serving{e: e, cells: newCellStream(wCold, e.seed)}, served: map[int64][]byte{}}
}

// coldDigestCells is the stream prefix the workload digest covers.
const coldDigestCells = 4096

func (c *coldCells) digest() string {
	return digestOf("cold_cells", marshalCells(c.cells.cells(coldDigestCells)))
}

func (c *coldCells) cellsPerOp() int { return 1 }

func (c *coldCells) op(n int64, traced bool) error {
	if n >= maxStreamCells {
		return fmt.Errorf("stream exhausted at %d cells", n)
	}
	body, err := json.Marshal(c.cells.cell(int(n)))
	if err != nil {
		return err
	}
	b, class, err := c.st.simulate(body, traceOp(n, traced))
	if err != nil {
		return err
	}
	c.classes.add(class, 1)
	c.mu.Lock()
	c.served[n] = b
	c.mu.Unlock()
	return nil
}

// coldChecked is how many served cells are compared with a reference
// after the window, in a seeded sample.
const coldChecked = 512

// check renders a seeded sample of the served cells and compares them;
// the sample becomes the set a traced run's layer timings use.
func (c *coldCells) check() (int, error) {
	ns := make([]int64, 0, len(c.served))
	for n := range c.served {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	c.cells.rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
	ns = ns[:min(len(ns), c.e.scaled(coldChecked, 1))]
	c.set = make([]server.Request, len(ns))
	for i, n := range ns {
		c.set[i] = c.cells.cell(int(n))
	}
	if err := c.prepare(); err != nil {
		return 0, err
	}
	bad := 0
	for i, n := range ns {
		if !bytes.Equal(c.served[n], c.refs[i].body) {
			bad++
		}
	}
	c.distinct = len(c.served)
	c.served = nil
	return bad, nil
}

func (c *coldCells) counts() map[string]int {
	m := c.classes.counts()
	m["oracle_checked"] = len(c.set)
	m["distinct_cells"] = c.distinct
	return m
}

// warmT1 sends /v1/simulate requests in a seeded cyclic order over a
// working set that fits both servers' tier-1 caches, checking every body
// against its reference.
type warmT1 struct {
	serving
	bodies [][]byte
	order  []int
}

func newWarmT1(e *env) workload {
	s := &warmT1{serving: serving{e: e, cells: newCellStream(wWarm, e.seed)}}
	s.set = s.cells.cells(e.scaled(server.DefaultCacheSize, 4))
	s.order = s.cells.rng.Perm(len(s.set))
	s.bodies = marshalCells(s.set)
	return s
}

func (s *warmT1) digest() string {
	ordered := make([][]byte, len(s.order))
	for i, k := range s.order {
		ordered[i] = s.bodies[k]
	}
	return digestOf("warm_t1", ordered)
}

func (s *warmT1) cellsPerOp() int { return 1 }

func (s *warmT1) op(n int64, traced bool) error {
	k := s.order[n%int64(len(s.order))]
	b, class, err := s.st.simulate(s.bodies[k], traceOp(n, traced))
	if err != nil {
		return err
	}
	s.classes.add(class, 1)
	if !bytes.Equal(b, s.refs[k].body) {
		return errMismatch
	}
	return nil
}
