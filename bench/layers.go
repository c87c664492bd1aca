package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"busaware"
	"busaware/internal/digest"
	"busaware/internal/server"
	"busaware/internal/store"
)

// rendered is one cell computed through the public path: the reference
// body a server must serve for it, and what producing it cost.
type rendered struct {
	body          []byte
	sim, encode   time.Duration
	quanta, leapt int
}

// render computes req the way a reader of the public API would, with
// no serving code in the loop: workload.ParseSpec (via the facade), a
// scheduler from busaware.NewScheduler, sim.Run on the given engine,
// then server.NewResponse(res, nil, nil).MarshalBody().
func render(req server.Request, engine busaware.EngineKind) (rendered, error) {
	apps, err := busaware.ParseApps(req.Apps)
	if err != nil {
		return rendered{}, err
	}
	m := busaware.PaperMachine()
	s, err := busaware.NewScheduler(req.Policy, m, req.Seed)
	if err != nil {
		return rendered{}, err
	}
	t0 := time.Now()
	res, err := busaware.RunEngine(engine, m, s, nil, apps)
	if err != nil {
		return rendered{}, err
	}
	t1 := time.Now()
	resp, err := server.NewResponse(res, nil, nil)
	if err != nil {
		return rendered{}, err
	}
	body, err := resp.MarshalBody()
	if err != nil {
		return rendered{}, err
	}
	return rendered{body: body, sim: t1.Sub(t0), encode: time.Since(t1), quanta: res.Quanta, leapt: res.LeaptQuanta}, nil
}

// renderAll renders every request on GOMAXPROCS goroutines.
func renderAll(reqs []server.Request, engine busaware.EngineKind) ([]rendered, error) {
	out := make([]rendered, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i], errs[i] = render(reqs[i], engine)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// digestSink keeps the timed digest calls from being optimized away.
var digestSink string

// measureLayers times the layers a request crosses inside a server, one
// layer at a time, on the workload's own cells: rs are reqs rendered on
// the engine the workload runs. The simulator is also run on the event
// engine for its leap share (engine metadata; results are identical on
// every engine). Store timings use a scratch store under dir laid out
// like a backend's: a tier-2 directory plus a shared tier 3.
func measureLayers(dir string, reqs []server.Request, rs []rendered, engine busaware.EngineKind) (map[string]float64, error) {
	m := map[string]float64{}
	if len(rs) == 0 {
		return m, nil
	}
	n := float64(len(rs))
	var simT, encodeT time.Duration
	var quanta int
	for _, r := range rs {
		simT += r.sim
		encodeT += r.encode
		quanta += r.quanta
	}
	m["sim.run_us"] = us(simT) / n
	m["sim.ns_per_quantum"] = float64(simT) / float64(quanta)
	m["encode.render_us"] = us(encodeT) / n

	ev := rs
	if engine != busaware.EngineEvent {
		var err error
		if ev, err = renderAll(reqs, busaware.EngineEvent); err != nil {
			return nil, err
		}
	}
	var leapt, evQuanta int
	for i, r := range ev {
		if !bytes.Equal(r.body, rs[i].body) {
			return nil, fmt.Errorf("cell %d: event engine body differs from %s engine: %w", i, engine, errMismatch)
		}
		leapt += r.leapt
		evQuanta += r.quanta
	}
	m["sim.leapt_frac"] = float64(leapt) / float64(evQuanta)

	keys := make([]string, len(reqs))
	t0 := time.Now()
	for i, r := range reqs {
		k, err := server.CanonicalKey(r)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	m["canonical.key_us"] = us(time.Since(t0)) / n

	t0 = time.Now()
	for _, r := range rs {
		digestSink = digest.Sum(r.body)
	}
	m["digest.sum_us"] = us(time.Since(t0)) / n

	root, err := os.MkdirTemp(dir, "layers-")
	if err != nil {
		return nil, err
	}
	s, err := store.Open(store.Config{Dir: filepath.Join(root, "t2"), SharedDir: filepath.Join(root, "t3")})
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i, r := range rs {
		s.Put(keys[i], r.body)
	}
	m["store.put_us"] = us(time.Since(t0)) / n
	t0 = time.Now()
	for i, r := range rs {
		body, tier, ok := s.Get(keys[i])
		if !ok || tier != store.TierDisk || !bytes.Equal(body, r.body) {
			return nil, fmt.Errorf("store: key %d read back wrong (tier %s): %w", i, tier, errMismatch)
		}
	}
	m["store.get_us"] = us(time.Since(t0)) / n
	return m, nil
}
