package busaware

import (
	"busaware/internal/experiments"
	"busaware/internal/faults"
	"busaware/internal/runner"
	"busaware/internal/units"
)

// Re-exported experiment types; see internal/experiments for the
// field-level documentation.
type (
	// ExperimentOptions configures a figure run (Linux seeds, engine,
	// worker count, run metrics).
	ExperimentOptions = experiments.Options
	// Fig1Row is one application's bars in Figure 1 (rates and
	// slowdowns across the four Section 3 configurations).
	Fig1Row = experiments.Fig1Row
	// Fig2Row is one application's bars in a Figure 2 panel
	// (turnaround improvement of each policy over Linux).
	Fig2Row = experiments.Fig2Row
	// Fig2Summary aggregates a Figure 2 panel.
	Fig2Summary = experiments.Fig2Summary
	// CalibrationResult pins the simulator against the paper's STREAM
	// measurements.
	CalibrationResult = experiments.CalibrationResult
	// HitRateResult derives a microbenchmark's cache behaviour from
	// its address pattern.
	HitRateResult = experiments.HitRateResult
	// WindowAblationRow sweeps the Quanta Window length.
	WindowAblationRow = experiments.WindowAblationRow
	// QuantumAblationRow sweeps the manager quantum.
	QuantumAblationRow = experiments.QuantumAblationRow
	// OverheadResult measures the CPU manager's cost.
	OverheadResult = experiments.OverheadResult
	// ZooRow compares every scheduler on one workload.
	ZooRow = experiments.ZooRow
	// SamplingAblationRow contrasts estimator inputs.
	SamplingAblationRow = experiments.SamplingAblationRow
	// RobustnessResult summarizes random-workload sweeps.
	RobustnessResult = experiments.RobustnessResult
	// DegradationPoint is one cell of the fault-injection sweep: both
	// policies' improvement over clean Linux with one fault class at
	// one rate.
	DegradationPoint = experiments.DegradationPoint
	// DegradationFaultClass names an injectable failure mode.
	DegradationFaultClass = experiments.FaultClass
	// FaultConfig sets seeded fault-injection rates for a run; the zero
	// value is inert.
	FaultConfig = faults.Config
	// FaultStats reports what an injector actually did during a run.
	FaultStats = faults.Stats
	// ServerRow is a server-class application's outcome (extension).
	ServerRow = experiments.ServerRow
	// SMTRow compares hyperthreading off/on under one policy
	// (extension).
	SMTRow = experiments.SMTRow
	// ChurnRow is one policy's outcome under the flash-crowd churn
	// scenario (extension).
	ChurnRow = experiments.ChurnRow
)

// Run-level metrics types of the parallel experiment runner; see
// internal/runner for the field-level documentation.
type (
	// RunMetrics accumulates per-batch runner reports across a sweep.
	// Set ExperimentOptions.Metrics to one to collect; read it back
	// with Batches and Total.
	RunMetrics = runner.Metrics
	// RunBatch is one named batch report observed by a RunMetrics.
	RunBatch = runner.Batch
	// RunReport is the run-level observability of one batch: per-cell
	// wall time, simulated quanta, bus utilization and worker
	// occupancy.
	RunReport = runner.Report
	// RunTotal aggregates every observed batch of a sweep.
	RunTotal = runner.Total
)

// NewRunMetrics returns an empty run-level metrics accumulator.
func NewRunMetrics() *RunMetrics { return runner.NewMetrics() }

// Workload sets of the paper's Section 5 (Figure 2 panels).
const (
	SetBBMA  = experiments.SetBBMA
	SetNBBMA = experiments.SetNBBMA
	SetMixed = experiments.SetMixed
)

// Figure1 regenerates both panels of the paper's Figure 1: cumulative
// bus transaction rates and slowdowns of the eleven applications under
// the four Section 3 configurations.
func Figure1(opt ExperimentOptions) ([]Fig1Row, error) {
	return experiments.Figure1(opt)
}

// Figure2A regenerates Figure 2A: turnaround improvement over Linux
// with two application instances and four BBMA antagonists.
func Figure2A(opt ExperimentOptions) ([]Fig2Row, error) {
	return experiments.Figure2(experiments.SetBBMA, opt)
}

// Figure2B regenerates Figure 2B: two instances + four nBBMA.
func Figure2B(opt ExperimentOptions) ([]Fig2Row, error) {
	return experiments.Figure2(experiments.SetNBBMA, opt)
}

// Figure2C regenerates Figure 2C: two instances + 2 BBMA + 2 nBBMA.
func Figure2C(opt ExperimentOptions) ([]Fig2Row, error) {
	return experiments.Figure2(experiments.SetMixed, opt)
}

// SummarizeFigure2 aggregates a panel (mean/min/max improvements).
func SummarizeFigure2(set experiments.WorkloadSet, rows []Fig2Row) Fig2Summary {
	return experiments.Summarize(set, rows)
}

// Calibrate reproduces the paper's STREAM calibration table.
func Calibrate(opt ExperimentOptions) (CalibrationResult, error) {
	return experiments.Calibrate(opt)
}

// MicrobenchmarkHitRates derives the BBMA/nBBMA cache hit rates from
// first principles through the L2 simulator.
func MicrobenchmarkHitRates() ([]HitRateResult, error) {
	return experiments.HitRates()
}

// AblateWindow sweeps the Quanta Window length (paper: W = 5).
func AblateWindow(opt ExperimentOptions, windows []int) ([]WindowAblationRow, error) {
	return experiments.WindowAblation(opt, windows)
}

// AblateQuantum sweeps the CPU-manager quantum (paper: 200 ms).
func AblateQuantum(opt ExperimentOptions, quanta []units.Time) ([]QuantumAblationRow, error) {
	return experiments.QuantumAblation(opt, quanta)
}

// MeasureManagerOverhead reproduces the paper's worst-case manager
// overhead measurement (<= 4.5%).
func MeasureManagerOverhead(opt ExperimentOptions) (OverheadResult, error) {
	return experiments.ManagerOverhead(opt, 0)
}

// CompareSchedulers runs the full scheduler lineup on the mixed set.
func CompareSchedulers(opt ExperimentOptions, appName string) ([]ZooRow, error) {
	return experiments.SchedulerZoo(opt, appName)
}

// AblateSampling contrasts requirement-corrected sampling, raw
// consumption sampling, and guard-free selection.
func AblateSampling(opt ExperimentOptions, apps []string) ([]SamplingAblationRow, error) {
	return experiments.SamplingAblation(opt, apps)
}

// MeasureRobustness sweeps n randomly generated workloads (seeded,
// deterministic) and summarizes both policies' improvement over Linux
// — the generalization check beyond the paper's hand-picked mixes.
func MeasureRobustness(opt ExperimentOptions, n int, seed int64) (RobustnessResult, error) {
	return experiments.Robustness(opt, n, seed)
}

// MeasureDegradation sweeps seeded fault injection (sample loss,
// signal loss, client crashes) over the mixed workload and reports how
// much of each policy's improvement over clean Linux survives. Nil
// rates selects the default 0/10/30/50% grid.
func MeasureDegradation(opt ExperimentOptions, rates []float64, seed int64) ([]DegradationPoint, error) {
	return experiments.Degradation(opt, rates, seed)
}

// RunServerWorkloads evaluates the web-server and database profiles —
// the paper's "I/O and network-intensive workloads" future work.
func RunServerWorkloads(opt ExperimentOptions) ([]ServerRow, error) {
	return experiments.ServerWorkloads(opt)
}

// RunSMTStudy measures hyperthreading off vs on under Linux and
// Quanta Window — the paper's "multithreading processors" future work.
func RunSMTStudy(opt ExperimentOptions) ([]SMTRow, error) {
	return experiments.SMTStudy(opt)
}

// RunChurnStudy subjects each policy to the same mid-run flash crowd
// (scenario churn over a resident BT pair) and reports how well the
// base apps' turnaround was protected. See experiments.ChurnPattern.
func RunChurnStudy(opt ExperimentOptions) ([]ChurnRow, error) {
	return experiments.ChurnStudy(opt)
}
