// Command figures regenerates every table and figure of the paper's
// evaluation on the simulated machine and renders them as aligned
// text tables (optionally CSV). Independent simulation cells fan out
// across a bounded worker pool (-workers); the output is identical at
// any worker count.
//
// Usage:
//
//	figures [-fig all|cal|hit|1a|1b|2a|2b|2c|ablw|ablq|ovh|zoo|sampling|robust|degr|servers|smt|timeline|churn] [-engine quantum|event|shadow] [-csv] [-workers N] [-runstats] [-timelineout f] [-cpuprofile f] [-memprofile f]
//
// -engine selects the simulation core: quantum is the stepped
// reference loop, event leaps across constant stretches, and shadow
// runs both cores on every cell and fails on any divergence (the
// correctness harness for the event engine). The figures themselves
// are identical under all three.
//
// -fig timeline renders per-window telemetry (bus utilization,
// admission decisions, saturation) for the saturated mix under the
// Linux baseline and the Quanta Window policy; -timelineout
// additionally writes the windows as a machine-readable artifact (CSV
// when the path ends in .csv, NDJSON otherwise).
//
// -fig churn runs the flash-crowd churn study: scenario jobs arrive
// and depart mid-run while a resident BT pair completes, and the table
// reports how well each policy protected the base apps' turnaround.
// Like timeline, churn is an extension artifact outside -fig all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"busaware"
	"busaware/internal/report"
)

func main() {
	fig := flag.String("fig", "all", "which artifact to regenerate: all, cal, hit, 1a, 1b, 2a, 2b, 2c, ablw, ablq, ovh, zoo, sampling, robust, degr, servers, smt, timeline, churn (timeline and churn are not part of all)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	app := flag.String("app", "BT", "application for the scheduler-zoo comparison")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	engine := flag.String("engine", "", "simulation engine: quantum (stepped reference, default), event (leaps constant stretches), shadow (runs both, fails on divergence)")
	runstats := flag.Bool("runstats", false, "print run-level metrics (per-batch wall time, simulated quanta, bus utilization, worker occupancy) after the figures")
	timelineOut := flag.String("timelineout", "", "with -fig timeline: write per-window telemetry to this file (.csv = CSV, else NDJSON)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole regeneration to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after a final GC) to this file on exit")
	flag.Parse()

	profiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	err = run(*fig, *engine, *csv, *app, *workers, *runstats, *timelineOut)
	// Finish the profiles before deciding the exit: a clean run flushes
	// complete files; a failed run removes the partial ones instead of
	// leaving truncated profiles that pprof would half-read.
	if perr := profiles.finish(err != nil); err == nil {
		err = perr
	}
	if err != nil {
		fatal(err)
	}
}

func run(fig, engine string, csv bool, app string, workers int, runstats bool, timelineOut string) error {
	eng, err := busaware.ParseEngine(engine)
	if err != nil {
		return err
	}
	opt := busaware.ExperimentOptions{Workers: workers, Engine: eng}
	var metrics *busaware.RunMetrics
	if runstats {
		metrics = busaware.NewRunMetrics()
		opt.Metrics = metrics
	}
	emit := func(t *report.Table) {
		if csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	var figTimes []figTime
	defer func() {
		if metrics != nil {
			emit(figWallTable(eng, figTimes))
			emit(runstatsTable(metrics))
		}
	}()

	figs := map[string]func() error{
		"cal": func() error { return calibration(opt, emit) },
		"hit": func() error { return hitRates(emit) },
		"1a":  func() error { return figure1(opt, emit, true) },
		"1b":  func() error { return figure1(opt, emit, false) },
		"2a": func() error {
			rows, err := busaware.Figure2A(opt)
			return figure2("Figure 2A: 2 apps + 4 BBMA (improvement % over Linux)", rows, err, emit)
		},
		"2b": func() error {
			rows, err := busaware.Figure2B(opt)
			return figure2("Figure 2B: 2 apps + 4 nBBMA (improvement % over Linux)", rows, err, emit)
		},
		"2c": func() error {
			rows, err := busaware.Figure2C(opt)
			return figure2("Figure 2C: 2 apps + 2 BBMA + 2 nBBMA (improvement % over Linux)", rows, err, emit)
		},
		"ablw":     func() error { return windowAblation(opt, emit) },
		"ablq":     func() error { return quantumAblation(opt, emit) },
		"ovh":      func() error { return overhead(opt, emit) },
		"zoo":      func() error { return zoo(opt, app, emit) },
		"sampling": func() error { return sampling(opt, emit) },
		"robust":   func() error { return robustness(opt, emit) },
		"degr":     func() error { return degradation(opt, emit) },
		"servers":  func() error { return servers(opt, emit) },
		"smt":      func() error { return smt(opt, emit) },
		"timeline": func() error { return timelineFigure(opt, emit, timelineOut) },
		"churn":    func() error { return churnFigure(opt, emit) },
	}
	// "timeline" and "churn" are deliberately outside the all-order:
	// they are extension artifacts, not paper figures, and keeping them
	// out preserves -fig all output byte-for-byte.
	order := []string{"cal", "hit", "1a", "1b", "2a", "2b", "2c", "ablw", "ablq", "ovh", "zoo", "sampling", "robust", "degr", "servers", "smt"}

	// timed wraps one figure so -runstats can report per-figure wall
	// clock alongside the batch metrics.
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		figTimes = append(figTimes, figTime{name: name, wall: time.Since(t0)})
		return err
	}

	which := strings.ToLower(fig)
	if which == "all" {
		for _, k := range order {
			if err := timed(k, figs[k]); err != nil {
				return err
			}
		}
		return nil
	}
	f, ok := figs[which]
	if !ok {
		return fmt.Errorf("unknown figure %q (want one of: all %s timeline churn)", which, strings.Join(order, " "))
	}
	return timed(which, f)
}

// figTime is one figure's wall-clock cost within a regeneration.
type figTime struct {
	name string
	wall time.Duration
}

// figWallTable renders per-figure wall clock and the engine the run
// executed on.
func figWallTable(engine busaware.EngineKind, times []figTime) *report.Table {
	t := report.NewTable(fmt.Sprintf("Per-figure wall clock (engine=%s)", engine),
		"Figure", "Wall")
	var total time.Duration
	for _, ft := range times {
		total += ft.wall
		t.AddRowf(ft.name, ft.wall.Round(time.Millisecond).String())
	}
	t.AddRowf("TOTAL", total.Round(time.Millisecond).String())
	return t
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

// profileState tracks the pprof outputs so error paths can clean up.
// The previous shape hung profile completion off deferred closures
// that fatal()'s os.Exit skipped, leaving a truncated CPU profile (and
// no heap profile) exactly when a run failed.
type profileState struct {
	cpuFile *os.File
	cpuPath string
	memPath string
}

// startProfiles opens the CPU profile (if requested) and records the
// heap-profile destination for finish.
func startProfiles(cpuPath, memPath string) (*profileState, error) {
	p := &profileState{cpuPath: cpuPath, memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(cpuPath)
			return nil, err
		}
		p.cpuFile = f
	}
	return p, nil
}

// finish completes both profiles. On failure it stops and deletes them
// — a partial profile is worse than none — and never masks the run's
// own error.
func (p *profileState) finish(failed bool) error {
	var first error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		err := p.cpuFile.Close()
		if failed {
			os.Remove(p.cpuPath)
		} else if err != nil {
			first = err
		}
	}
	if p.memPath != "" && !failed {
		f, err := os.Create(p.memPath)
		if err != nil {
			return firstErr(first, err)
		}
		runtime.GC() // settle live heap so the profile reflects retained allocations
		werr := pprof.WriteHeapProfile(f)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			os.Remove(p.memPath)
			return firstErr(first, firstErr(werr, cerr))
		}
	}
	return first
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// runstatsTable renders the run-level metrics the parallel runner
// collected: one row per batch plus the sweep total.
func runstatsTable(m *busaware.RunMetrics) *report.Table {
	t := report.NewTable("Run-level metrics (parallel experiment runner)",
		"Batch", "Cells", "Workers", "Peak", "Wall", "CellWall", "Quanta", "SimTime", "BusUtil", "Speedup")
	for _, b := range m.Batches() {
		r := b.Report
		t.AddRowf(b.Name, fmt.Sprint(len(r.Cells)), fmt.Sprint(r.Workers),
			fmt.Sprint(r.PeakOccupancy),
			r.Wall.Round(time.Millisecond).String(),
			r.CellWall().Round(time.Millisecond).String(),
			fmt.Sprint(r.TotalQuanta()), r.TotalSimTime().String(),
			r.MeanBusUtilization(), r.Speedup())
	}
	tot := m.Total()
	t.AddRowf("TOTAL", fmt.Sprint(tot.Cells), fmt.Sprint(tot.Workers),
		fmt.Sprint(tot.PeakOccupancy),
		tot.Wall.Round(time.Millisecond).String(),
		tot.CellWall.Round(time.Millisecond).String(),
		fmt.Sprint(tot.Quanta), tot.SimTime.String(),
		tot.BusUtilization, tot.Speedup())
	return t
}

func calibration(opt busaware.ExperimentOptions, emit func(*report.Table)) error {
	cal, err := busaware.Calibrate(opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Calibration (paper Section 3: STREAM on 4 processors)",
		"Quantity", "Simulated", "Paper")
	t.AddRowf("Sustained rate (trans/us)", float64(cal.SustainedRate), "29.5")
	t.AddRowf("Sustained bandwidth (MB/s)", cal.SustainedMBps, "1797")
	t.AddRowf("Bytes per transaction", fmt.Sprint(cal.BytesPerTransaction), "~64")
	t.AddRowf("Nominal peak (MB/s)", cal.PeakMBps, "3200")
	emit(t)
	return nil
}

func hitRates(emit func(*report.Table)) error {
	rows, err := busaware.MicrobenchmarkHitRates()
	if err != nil {
		return err
	}
	t := report.NewTable("Microbenchmark cache behaviour (derived via L2 simulator; paper: BBMA ~0%, nBBMA ~100%)",
		"Pattern", "Refs", "HitRate", "BusTrans/Ref")
	for _, r := range rows {
		t.AddRowf(r.Name, fmt.Sprint(r.Refs), fmt.Sprintf("%.4f", r.HitRate), fmt.Sprintf("%.4f", r.BusTransPerRef))
	}
	emit(t)
	return nil
}

func figure1(opt busaware.ExperimentOptions, emit func(*report.Table), panelA bool) error {
	rows, err := busaware.Figure1(opt)
	if err != nil {
		return err
	}
	if panelA {
		t := report.NewTable("Figure 1A: cumulative bus transactions/usec (black, dark gray, light gray, striped bars)",
			"App", "Solo", "2 Apps", "App+2BBMA", "App+2nBBMA")
		for _, r := range rows {
			t.AddRowf(r.App, float64(r.SoloRate), float64(r.TwoAppsRate),
				float64(r.WithBBMARate), float64(r.WithNBBMARate))
		}
		emit(t)
		return nil
	}
	t := report.NewTable("Figure 1B: slowdown vs solo execution",
		"App", "2 Apps", "App+2BBMA", "App+2nBBMA")
	for _, r := range rows {
		t.AddRowf(r.App, r.TwoAppsSlowdown, r.WithBBMASlowdown, r.WithNBBMASlowdown)
	}
	emit(t)
	return nil
}

func figure2(title string, rows []busaware.Fig2Row, err error, emit func(*report.Table)) error {
	return errFirst(err, func() error {
		t := report.NewTable(title,
			"App", "Linux(s)", "LQ(s)", "QW(s)", "LQ impr %", "QW impr %")
		for _, r := range rows {
			t.AddRowf(r.App,
				r.LinuxTurnaround.Seconds(), r.LQTurnaround.Seconds(), r.QWTurnaround.Seconds(),
				r.LQImprovement, r.QWImprovement)
		}
		emit(t)
		return nil
	})
}

func errFirst(err error, then func() error) error {
	if err != nil {
		return err
	}
	return then()
}

func windowAblation(opt busaware.ExperimentOptions, emit func(*report.Table)) error {
	rows, err := busaware.AblateWindow(opt, nil)
	if err != nil {
		return err
	}
	t := report.NewTable("Window-length ablation on Raytrace (paper picks W=5)",
		"W", "TrackDist", "EstStdDev", "Raytrace impr %")
	for _, r := range rows {
		t.AddRowf(fmt.Sprint(r.Window), fmt.Sprintf("%.3f", r.TrackingDistance),
			r.EstimateStdDev, r.RaytraceImprovement)
	}
	emit(t)
	return nil
}

func quantumAblation(opt busaware.ExperimentOptions, emit func(*report.Table)) error {
	rows, err := busaware.AblateQuantum(opt, nil)
	if err != nil {
		return err
	}
	t := report.NewTable("Quantum ablation on BT mixed set (paper settles on 200ms)",
		"Quantum", "CtxSw/s", "Migr/s", "Impr %")
	for _, r := range rows {
		t.AddRowf(r.Quantum.String(), r.ContextSwitchesPerSec, r.MigrationsPerSec, r.Improvement)
	}
	emit(t)
	return nil
}

func overhead(opt busaware.ExperimentOptions, emit func(*report.Table)) error {
	res, err := busaware.MeasureManagerOverhead(opt)
	if err != nil {
		return err
	}
	t := report.NewTable("CPU-manager overhead, worst case (paper: <= 4.5%)",
		"Variant", "Mean turnaround", "Overhead %")
	t.AddRowf("unmanaged", res.BaselineTurnaround.String(), "-")
	t.AddRowf("managed", res.ManagedTurnaround.String(), res.OverheadPercent)
	emit(t)
	return nil
}

func zoo(opt busaware.ExperimentOptions, app string, emit func(*report.Table)) error {
	rows, err := busaware.CompareSchedulers(opt, app)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Scheduler comparison on %s + 2 BBMA + 2 nBBMA", app),
		"Scheduler", "Mean turnaround", "Impr vs Linux %")
	for _, r := range rows {
		t.AddRowf(r.Scheduler, r.MeanTurnaround.String(), r.ImprovementVsLinux)
	}
	emit(t)
	return nil
}

func robustness(opt busaware.ExperimentOptions, emit func(*report.Table)) error {
	res, err := busaware.MeasureRobustness(opt, 20, 1)
	if err != nil {
		return err
	}
	t := report.NewTable("Random-workload robustness (20 seeded mixes, improvement % over Linux)",
		"Policy", "Wins", "Mean", "Median", "Min", "Max")
	t.AddRowf("LatestQuantum", fmt.Sprintf("%d/%d", res.LQWins, res.Workloads),
		res.LQ.Mean, res.LQ.Median, res.LQ.Min, res.LQ.Max)
	t.AddRowf("QuantaWindow", fmt.Sprintf("%d/%d", res.QWWins, res.Workloads),
		res.QW.Mean, res.QW.Median, res.QW.Min, res.QW.Max)
	emit(t)
	return nil
}

func degradation(opt busaware.ExperimentOptions, emit func(*report.Table)) error {
	points, err := busaware.MeasureDegradation(opt, nil, 1)
	if err != nil {
		return err
	}
	t := report.NewTable("Fault-injection degradation sweep, BT mixed set (improvement % over clean Linux; stale fallback K=4)",
		"Fault class", "Rate", "LQ impr %", "QW impr %", "LQ faults", "QW faults")
	for _, p := range points {
		t.AddRowf(string(p.Class), fmt.Sprintf("%.0f%%", p.Rate*100),
			p.LQImprovement, p.QWImprovement,
			fmt.Sprint(p.LQFaults.Total()), fmt.Sprint(p.QWFaults.Total()))
	}
	emit(t)
	return nil
}

func servers(opt busaware.ExperimentOptions, emit func(*report.Table)) error {
	rows, err := busaware.RunServerWorkloads(opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Server workloads on the mixed set (paper future work, implemented)",
		"App", "Linux(s)", "LQ(s)", "QW(s)", "LQ impr %", "QW impr %")
	for _, r := range rows {
		t.AddRowf(r.App, r.LinuxTurnaround.Seconds(), r.LQTurnaround.Seconds(),
			r.QWTurnaround.Seconds(), r.LQImprovement, r.QWImprovement)
	}
	emit(t)
	return nil
}

func smt(opt busaware.ExperimentOptions, emit func(*report.Table)) error {
	rows, err := busaware.RunSMTStudy(opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Hyperthreading study: 4 CPUs vs 8 logical on 4 cores, BT mixed workload (per-work speedup)",
		"Policy", "SMT off", "SMT on (2x work)", "Speedup %")
	for _, r := range rows {
		t.AddRowf(r.Policy, r.SMTOff.String(), r.SMTOn.String(), r.SpeedupPercent)
	}
	emit(t)
	return nil
}

func churnFigure(opt busaware.ExperimentOptions, emit func(*report.Table)) error {
	rows, err := busaware.RunChurnStudy(opt)
	if err != nil {
		return err
	}
	t := report.NewTable("Flash-crowd churn: BT pair under mid-run scenario arrivals (base-app turnaround)",
		"Policy", "Base turnaround", "Arrivals", "Departures", "Completed", "Impr vs Linux %")
	for _, r := range rows {
		t.AddRowf(r.Policy, r.BaseTurnaround.String(),
			fmt.Sprint(r.Arrivals), fmt.Sprint(r.Departures), fmt.Sprint(r.Completed),
			r.ImprovementVsLinux)
	}
	emit(t)
	return nil
}

func sampling(opt busaware.ExperimentOptions, emit func(*report.Table)) error {
	rows, err := busaware.AblateSampling(opt, nil)
	if err != nil {
		return err
	}
	t := report.NewTable("Estimator-input ablation on the saturated set (QW improvement % over Linux)",
		"App", "Requirements", "Consumption", "SaturationGuard")
	for _, r := range rows {
		t.AddRowf(r.App, r.RequirementsImprovement, r.ConsumptionImprovement, r.GuardedImprovement)
	}
	emit(t)
	return nil
}
