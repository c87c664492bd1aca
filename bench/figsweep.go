package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"busaware"
	"busaware/internal/server"
)

// figures is the `figures -fig all` regeneration, in its order, through
// the busaware facade.
var figures = []struct {
	name string
	run  func(busaware.ExperimentOptions) (any, error)
}{
	{"cal", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.Calibrate(o)) }},
	{"hit", func(busaware.ExperimentOptions) (any, error) { return rows(busaware.MicrobenchmarkHitRates()) }},
	{"1a", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.Figure1(o)) }},
	{"1b", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.Figure1(o)) }},
	{"2a", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.Figure2A(o)) }},
	{"2b", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.Figure2B(o)) }},
	{"2c", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.Figure2C(o)) }},
	{"ablw", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.AblateWindow(o, nil)) }},
	{"ablq", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.AblateQuantum(o, nil)) }},
	{"ovh", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.MeasureManagerOverhead(o)) }},
	{"zoo", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.CompareSchedulers(o, "BT")) }},
	{"sampling", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.AblateSampling(o, nil)) }},
	{"robust", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.MeasureRobustness(o, 20, 1)) }},
	{"degr", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.MeasureDegradation(o, nil, 1)) }},
	{"servers", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.RunServerWorkloads(o)) }},
	{"smt", func(o busaware.ExperimentOptions) (any, error) { return rows(busaware.RunSMTStudy(o)) }},
}

func rows[T any](v T, err error) (any, error) { return v, err }

// figsweep regenerates every figure of the paper per operation, on the
// event engine. No serving code runs, so it is almost all simulator
// work. The seed picks the Linux baseline seeds, which mints distinct
// baseline cells.
//
// The runner has one worker. The host has two vCPUs on a shared
// machine, and the simulator's speed there swings by up to a third with
// what else the host runs; with both vCPUs busy the swings doubled (the
// median time of Figure 2A over 15 s windows spread 0.23 with two
// workers and 0.13 with one, in one process each, minutes apart).
type figsweep struct {
	e     *env
	opt   busaware.ExperimentOptions
	figs  int    // how many of figures one sweep runs (all, unless scaled)
	cells int    // simulation cells per sweep, counted on the reference
	want  []byte // hash of the reference sweep's rows
	got   []byte // hash of the last set-up sweep's rows
}

func newFigsweep(e *env) workload {
	s := int64(uint32(e.seed))
	return &figsweep{
		e: e,
		opt: busaware.ExperimentOptions{
			Engine:     busaware.EngineEvent,
			Workers:    1,
			LinuxSeeds: []int64{3*s + 1, 3*s + 2, 3*s + 3},
		},
		figs: e.scaled(len(figures), 1),
	}
}

func (f *figsweep) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "figsweep engine=%s linux_seeds=%v figures=", f.opt.Engine, f.opt.LinuxSeeds)
	for _, fig := range figures[:f.figs] {
		fmt.Fprintf(h, "%s,", fig.name)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sweep runs the figures under opt and hashes their rows; around wraps
// each figure's run.
func (f *figsweep) sweep(opt busaware.ExperimentOptions, around func(name string, run func() error) error) ([]byte, error) {
	h := sha256.New()
	for _, fig := range figures[:f.figs] {
		err := around(fig.name, func() error {
			rows, err := fig.run(opt)
			if err != nil {
				return fmt.Errorf("figure %s: %w", fig.name, err)
			}
			fmt.Fprintf(h, "%s %+v\n", fig.name, rows)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return h.Sum(nil), nil
}

func untimed(_ string, run func() error) error { return run() }

func (f *figsweep) setup() (err error) {
	f.got, err = f.sweep(f.opt, untimed)
	return err
}

func (f *figsweep) teardown() {}

// prepare runs the reference sweep on the quantum engine, the stepped
// core every other engine must match bit for bit.
func (f *figsweep) prepare() (err error) {
	opt := f.opt
	opt.Engine = busaware.EngineQuantum
	opt.Metrics = busaware.NewRunMetrics()
	f.want, err = f.sweep(opt, untimed)
	f.cells = opt.Metrics.Total().Cells
	return err
}

func (f *figsweep) cellsPerOp() int { return f.cells }
func (f *figsweep) begin() error    { return nil }

func (f *figsweep) op(n int64, traced bool) error {
	around := untimed
	var start time.Duration
	if traced {
		start = f.e.tr.now()
		around = func(name string, run func() error) error {
			t0 := f.e.tr.now()
			err := run()
			f.e.tr.record(span{layer: layerExperiments, op: n, class: name, start: t0, end: f.e.tr.now()})
			return err
		}
	}
	got, err := f.sweep(f.opt, around)
	if err != nil {
		return err
	}
	if traced {
		f.e.tr.record(span{layer: layerSweep, op: n, class: "all", start: start, end: f.e.tr.now()})
	}
	if string(got) != string(f.want) {
		return errMismatch
	}
	return nil
}

// check compares the set-up sweep, the first on the measured engine,
// with the reference; every measured sweep was compared in op.
func (f *figsweep) check() (int, error) {
	if string(f.got) != string(f.want) {
		return 1, nil
	}
	return 0, nil
}

// layers reports the figure spans of the traced sweeps, and the
// per-layer timings of the Figure 1 and Figure 2 cells, which dominate
// the sweep.
func (f *figsweep) layers() (map[string]float64, error) {
	m := f.e.tr.sweepLedger()
	var reqs []server.Request
	for _, app := range busaware.Applications() {
		for _, apps := range []string{app.Name, app.Name + " x2", app.Name + ", BBMA x2", app.Name + ", nBBMA x2"} {
			reqs = append(reqs, server.Request{Apps: apps, Policy: busaware.PolicyGang})
		}
	}
	reqs = append(reqs, universe()...)
	reqs = reqs[:f.e.scaled(len(reqs), 3)]
	for i := range reqs {
		reqs[i].Seed = f.opt.LinuxSeeds[0]
	}
	rs, err := renderAll(reqs, busaware.EngineEvent)
	if err != nil {
		return nil, err
	}
	micro, err := measureLayers(f.e.dir, reqs, rs, busaware.EngineEvent)
	if err != nil {
		return nil, err
	}
	for k, v := range micro {
		m[k] = v
	}
	return m, nil
}

// universe is the Figure 2 cell grid: each of the eleven paper
// applications, two instances, beside the saturating (4 BBMA), the
// unsaturating (4 nBBMA) and the mixed antagonist set, under the two
// bandwidth-aware policies and the Linux baseline. Seeds are left 0
// for the caller to mint.
func universe() []server.Request {
	var out []server.Request
	for _, set := range []string{"BBMA x4", "nBBMA x4", "BBMA x2, nBBMA x2"} {
		for _, app := range busaware.Applications() {
			for _, policy := range []string{busaware.PolicyQuantaWindow, busaware.PolicyLatestQuantum, busaware.PolicyLinux} {
				out = append(out, server.Request{Apps: app.Name + " x2, " + set, Policy: policy})
			}
		}
	}
	return out
}
