// Command bench is the repository benchmark. From one process and with
// a seeded, closed-loop load it drives the two end-to-end paths of the
// system: the full figure sweep through the busaware facade, and the
// serving plane (gateway, two servers and the tiered result store, each
// behind an in-process httptest server). It checks every output against
// an oracle and prints one JSON result line.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out report.json]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics and a Chrome trace-event
// file is written to the work directory. bench/README.md describes the
// workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	workdir  string
	// scale multiplies every working-set size; the command runs at 1,
	// the smoke test at about 0.01.
	scale float64
	// setupRuns and setupBudget decide how often set-up is repeated:
	// at least setupRuns times and until setupBudget has been spent, so
	// that setup_s is a median even when one set-up takes milliseconds.
	setupRuns   int
	setupBudget time.Duration
}

// maxSetupRuns caps the set-up repetitions of the cheapest workloads.
const maxSetupRuns = 50

// metricDef is one metric the benchmark emits; BENCHMARK.json declares
// the same names and units.
type metricDef struct{ name, unit string }

// endToEndMetrics are a median and a memory figure. Throughput over the
// window and tail latencies are in the report only: on the 2-vCPU shared
// host these were measured on they mostly measure the host's stalls. In
// one set of ten warm_t1 runs the throughput spread 0.21 and the p90
// 0.17, where the median latency spread 0.05.
var endToEndMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"heap_retained_mb", "MB"},
	{"setup_s", "s"},
}

func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"sim.run_us", "us"},
		{"sim.ns_per_quantum", "ns"},
		{"sim.leapt_frac", "ratio"},
	}
	for _, f := range figures {
		defs = append(defs, metricDef{"experiments." + f.name + "_ms", "ms"})
	}
	return append(defs,
		metricDef{"gateway.self_us", "us"},
		metricDef{"gateway.attempts_per_req", "ratio"},
		metricDef{"net.client_gw_us", "us"},
		metricDef{"net.gw_backend_us", "us"},
		metricDef{"server.hit_t1_us", "us"},
		metricDef{"server.miss_us", "us"},
		metricDef{"server.t1_hit_ratio", "ratio"},
		metricDef{"server.t1_evictions", "count"},
		metricDef{"server.cells_computed", "count"},
		metricDef{"canonical.key_us", "us"},
		metricDef{"encode.render_us", "us"},
		metricDef{"store.get_us", "us"},
		metricDef{"store.put_us", "us"},
		metricDef{"store.puts", "count"},
		metricDef{"digest.sum_us", "us"},
		metricDef{"unattributed_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

// workload is one traffic mix over the system under test.
type workload interface {
	// digest identifies the generated input stream: equal for equal
	// seeds, different for different ones.
	digest() string
	// setup builds and warms the system under test; it is what setup_s
	// times.
	setup() error
	// teardown releases what setup built.
	teardown()
	// prepare builds the correctness oracle for the measured window.
	prepare() error
	// cellsPerOp is the cells one operation serves.
	cellsPerOp() int
	// begin marks the start of the measured window.
	begin() error
	// op runs operation n of the stream and checks its output; traced
	// records its spans.
	op(n int64, traced bool) error
	// check runs the oracle that needs the whole window's outputs and
	// returns how many of them were wrong.
	check() (int, error)
	// layers returns the per-layer metrics of a traced run.
	layers() (map[string]float64, error)
}

var workloads = map[string]func(*env) workload{
	"figsweep":   newFigsweep,
	"cold_cells": newColdCells,
	"warm_t1":    newWarmT1,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env is what a workload sees of the run.
type env struct {
	config
	dir string  // this run's directory for store tiers, kept at exit
	tr  *tracer // nil unless tracing
}

// scaled returns max(min, n·scale) rounded.
func (e *env) scaled(n, min int) int {
	v := int(float64(n)*e.scale + 0.5)
	if v < min {
		return min
	}
	return v
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detail behind a result, printed on the line before it.
type report struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	WorkloadDigest string             `json:"workload_digest"`
	SetupRunsS     []float64          `json:"setup_runs_s"`
	Samples        int                `json:"samples"`
	LatencyMS      map[string]float64 `json:"latency_ms"`  // percentiles of the operation times
	CellsPerS      float64            `json:"cells_per_s"` // cells served over the whole window
	Counts         map[string]int     `json:"counts,omitempty"`
	TraceFile      string             `json:"trace_file,omitempty"`
	Errors         []string           `json:"errors,omitempty"`
	Result         result             `json:"result"`
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics, 0 prints the end-to-end metrics")
	out := fs.String("out", "", "also write the report to this JSON file")
	workdir := fs.String("workdir", ".bench_build", "directory for store tiers and trace files")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	rep, err := execute(config{
		workload:    *name,
		seed:        *seed,
		window:      time.Duration(*seconds * float64(time.Second)),
		trace:       *trace == 1,
		workdir:     *workdir,
		scale:       1,
		setupRuns:   3,
		setupBudget: time.Second,
	})
	if err != nil {
		return 2, err
	}
	detail, err := json.Marshal(rep)
	if err != nil {
		return 2, err
	}
	last, err := json.Marshal(rep.Result)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", detail, last)
	if *out != "" {
		if err := os.WriteFile(*out, append(detail, '\n'), 0o644); err != nil {
			return 2, err
		}
	}
	if !rep.Result.Correct {
		return 1, fmt.Errorf("%d of %d operations failed: %s", rep.Result.Failed, rep.Result.Attempted, strings.Join(rep.Errors, "; "))
	}
	return 0, nil
}

// execute runs one workload: repeated set-up, the oracle, the measured
// closed-loop window, the post-window checks and the metrics.
func execute(cfg config) (*report, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	// The run's store directories are left in place. Deleting thousands
	// of entry files slows every file the next runs create on a disk
	// mounted with online discard (measured on ext4: a store Put went
	// from 72 to 798 µs over six write-and-delete rounds, and stays near
	// 110 µs when nothing is deleted), which would make the cold_cells
	// results depend on the runs before them.
	dir := filepath.Join(cfg.workdir, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dir, fmt.Sprintf("%s-%d-", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	e := &env{config: cfg, dir: dir}
	if cfg.trace {
		e.tr = newTracer()
	}
	w := mk(e)
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, WorkloadDigest: w.digest()}

	var spent time.Duration
	for k := 1; ; k++ {
		t0 := time.Now()
		err := w.setup()
		d := time.Since(t0)
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.SetupRunsS = append(rep.SetupRunsS, d.Seconds())
		spent += d
		if k >= maxSetupRuns || (k >= cfg.setupRuns && spent >= cfg.setupBudget) {
			break
		}
		w.teardown()
	}
	defer w.teardown()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := w.begin(); err != nil {
		return nil, err
	}
	lp := drive(cfg.window, cfg.trace, w.op)
	bad, err := w.check()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if bad > 0 {
		lp.errs = append(lp.errs, fmt.Sprintf("%d outputs differ from the reference", bad))
	}
	rep.Errors = lp.errs
	rep.Samples = len(lp.samples)
	rep.Result = result{
		Attempted: len(lp.samples) + lp.failed,
		Failed:    lp.failed + bad,
		Metrics:   map[string]metric{},
	}
	rep.Result.Correct = rep.Result.Failed == 0 && rep.Result.Attempted > 0
	if c, ok := w.(interface{ counts() map[string]int }); ok {
		rep.Counts = c.counts()
	}

	all := lp.latencies(func(sample) bool { return true })
	rep.LatencyMS = map[string]float64{}
	for _, p := range []int{25, 50, 75, 90, 99} {
		rep.LatencyMS[fmt.Sprintf("p%d", p)] = quantile(all, float64(p)/100)
	}
	rep.CellsPerS = float64(len(all)*w.cellsPerOp()) / lp.elapsed.Seconds()
	if !cfg.trace {
		vals := map[string]float64{
			"latency_p50_ms": quantile(all, 0.5),
			"setup_s":        median(rep.SetupRunsS),
		}
		// Drop the samples first: the heap figure is the system's, not
		// the size of this run's latency record.
		all, lp.samples = nil, nil
		vals["heap_retained_mb"] = heapRetainedMB()
		for _, d := range endToEndMetrics {
			rep.Result.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		return rep, nil
	}

	vals, err := w.layers()
	if err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	traced := lp.latencies(func(s sample) bool { return s.traced })
	untraced := lp.latencies(func(s sample) bool { return !s.traced })
	if len(traced) > 0 && len(untraced) > 0 {
		vals["trace.overhead_frac"] = quantile(traced, 0.5)/quantile(untraced, 0.5) - 1
	}
	for _, d := range perLayerMetrics() {
		// A layer the workload does not exercise reads 0.
		rep.Result.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	rep.TraceFile = filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := e.tr.writeChrome(rep.TraceFile, rep.Result.Metrics); err != nil {
		return nil, err
	}
	return rep, nil
}

// heapRetainedMB is the live heap after a full collection, in 10^6
// bytes.
func heapRetainedMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// sample is one completed operation.
type sample struct {
	ms     float64
	traced bool
}

// loop is the outcome of one closed-loop window.
type loop struct {
	samples []sample
	failed  int
	errs    []string // the first few failures, for the report
	elapsed time.Duration
}

// maxErrs bounds the failure messages a report carries.
const maxErrs = 5

// drive runs a closed loop of one client over the operation stream for
// window: it issues each operation only when the previous one returned.
// In a traced run every odd-numbered operation is traced, so traced and
// untraced operations interleave under the same conditions and their
// medians give the tracing overhead.
//
// One client keeps the window on one vCPU. The host these numbers come
// from has two vCPUs on a shared machine: with two clients the ten-run
// spread of warm_t1's median latency was 0.12–0.38, with one 0.03–0.16.
func drive(window time.Duration, trace bool, op func(n int64, traced bool) error) *loop {
	lp := &loop{}
	start := time.Now()
	deadline := start.Add(window)
	for n := int64(0); ; n++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		traced := trace && n%2 == 1
		err := op(n, traced)
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		if err != nil {
			lp.failed++
			if len(lp.errs) < maxErrs {
				lp.errs = append(lp.errs, fmt.Sprintf("op %d: %v", n, err))
			}
			continue
		}
		lp.samples = append(lp.samples, sample{ms, traced})
	}
	lp.elapsed = time.Since(start)
	return lp
}

// latencies returns the sorted latencies of the operations keep selects.
func (lp *loop) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range lp.samples {
		if keep(s) {
			out = append(out, s.ms)
		}
	}
	sort.Float64s(out)
	return out
}

// quantile is the q-quantile of sorted xs by linear interpolation
// between closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output differs from the reference")
