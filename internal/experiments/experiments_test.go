package experiments

import (
	"reflect"
	"testing"

	"busaware/internal/machine"
	"busaware/internal/runner"
	"busaware/internal/sched"
	"busaware/internal/sim"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Figure 1 shape assertions, per the paper's Section 3 findings.
func TestFigure1Shape(t *testing.T) {
	rows, err := Figure1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	var prevSolo units.Rate = -1
	for _, r := range rows {
		// Measured solo rates follow the registry's nominal ordering,
		// with slack for Raytrace, whose bursts exceed bus capacity on
		// their own (the paper flags its rate as anomalous), deflating
		// its measured rate below nominal.
		if r.SoloRate < prevSolo*0.85 {
			t.Errorf("%s: solo rate order violated (%.2f after %.2f)", r.App, float64(r.SoloRate), float64(prevSolo))
		}
		if r.SoloRate > prevSolo {
			prevSolo = r.SoloRate
		}

		// nBBMA companions leave rate and runtime ~solo.
		if r.WithNBBMASlowdown > 1.12 {
			t.Errorf("%s: slowdown with nBBMA = %.2f, want ~1", r.App, r.WithNBBMASlowdown)
		}
		// BBMA companions never speed anything up.
		if r.WithBBMASlowdown < r.WithNBBMASlowdown-0.02 {
			t.Errorf("%s: BBMA slowdown %.2f below nBBMA %.2f", r.App, r.WithBBMASlowdown, r.WithNBBMASlowdown)
		}
		// The BBMA workload pushes the bus near saturation.
		if r.WithBBMARate < 20 {
			t.Errorf("%s: rate with 2 BBMA = %.1f, want near saturation", r.App, float64(r.WithBBMARate))
		}
	}

	// Memory-intensive applications suffer 2x to ~3x against BBMA.
	cg := rows[len(rows)-1]
	if cg.App != "CG" {
		t.Fatalf("last row = %s, want CG", cg.App)
	}
	if cg.WithBBMASlowdown < 1.8 || cg.WithBBMASlowdown > 3.2 {
		t.Errorf("CG slowdown with BBMA = %.2f, want 2x-3x", cg.WithBBMASlowdown)
	}
	// Low-bandwidth apps suffer far less.
	rad := rows[0]
	if rad.WithBBMASlowdown > 1.6 {
		t.Errorf("Radiosity slowdown with BBMA = %.2f, want mild", rad.WithBBMASlowdown)
	}
	// Two instances of the top apps contend measurably.
	if cg.TwoAppsSlowdown < 1.3 {
		t.Errorf("CG two-instance slowdown = %.2f, want >= 1.3", cg.TwoAppsSlowdown)
	}
}

// Figure 2 shape assertions: both policies beat Linux on average in
// every set, with per-app means in the paper's ballpark.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure 2 sweep in short mode")
	}
	for _, set := range []WorkloadSet{SetBBMA, SetNBBMA, SetMixed} {
		rows, err := Figure2(set, Options{})
		if err != nil {
			t.Fatalf("%s: %v", set, err)
		}
		if len(rows) != 11 {
			t.Fatalf("%s: rows = %d", set, len(rows))
		}
		s := Summarize(set, rows)
		if s.LQMean < 5 {
			t.Errorf("%s: LQ mean improvement %.1f%%, want clearly positive", set, s.LQMean)
		}
		if s.QWMean < 5 {
			t.Errorf("%s: QW mean improvement %.1f%%, want clearly positive", set, s.QWMean)
		}
		if s.LQMax > 90 || s.QWMax > 90 {
			t.Errorf("%s: implausibly large improvement (LQ %.1f, QW %.1f)", set, s.LQMax, s.QWMax)
		}
	}
}

func TestFigure2SaturatedFavorsHighBandwidthApps(t *testing.T) {
	rows, err := Figure2(SetBBMA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The top-4 bandwidth apps should gain more than the bottom-4 on
	// the saturated set (the paper's increasing trend).
	var low, high float64
	for i := 0; i < 4; i++ {
		low += rows[i].LQImprovement
		high += rows[len(rows)-1-i].LQImprovement
	}
	if high <= low {
		t.Errorf("top-4 LQ improvement sum %.1f should exceed bottom-4 %.1f", high, low)
	}
}

func TestCalibration(t *testing.T) {
	cal, err := Calibrate(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Within 15% of the paper's sustained figures (arbitration and the
	// queueing equilibrium keep the simulator slightly below nominal).
	if cal.SustainedRate < 24 || cal.SustainedRate > 30 {
		t.Errorf("sustained rate = %.1f trans/us, want ~29.5", float64(cal.SustainedRate))
	}
	if cal.SustainedMBps < 1500 || cal.SustainedMBps > 1950 {
		t.Errorf("sustained bandwidth = %.0f MB/s, want ~1797", cal.SustainedMBps)
	}
	if cal.BytesPerTransaction != 64 {
		t.Errorf("bytes/transaction = %d", cal.BytesPerTransaction)
	}
}

func TestHitRates(t *testing.T) {
	rows, err := HitRates()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]HitRateResult{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	b := byName["BBMA(column-wise, 2x L2)"]
	if b.HitRate > 0.01 {
		t.Errorf("BBMA hit rate = %.4f, want ~0", b.HitRate)
	}
	if b.BusTransPerRef < 1 {
		t.Errorf("BBMA bus traffic per ref = %.2f, want >= 1 (fills + writebacks)", b.BusTransPerRef)
	}
	n := byName["nBBMA(row-wise, L2/2)"]
	if n.HitRate < 0.97 {
		t.Errorf("nBBMA hit rate = %.4f, want ~1", n.HitRate)
	}
}

func TestWindowAblation(t *testing.T) {
	rows, err := WindowAblation(Options{}, []int{1, 5, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Stability improves (stddev falls) with window length.
	if !(rows[0].EstimateStdDev >= rows[1].EstimateStdDev && rows[1].EstimateStdDev >= rows[2].EstimateStdDev) {
		t.Errorf("estimate stddev not decreasing: %v %v %v",
			rows[0].EstimateStdDev, rows[1].EstimateStdDev, rows[2].EstimateStdDev)
	}
	// W=1 tracks the pattern exactly (distance 0 by definition).
	if rows[0].TrackingDistance != 0 {
		t.Errorf("W=1 tracking distance = %v, want 0", rows[0].TrackingDistance)
	}
	if rows[1].TrackingDistance <= 0 {
		t.Error("W=5 tracking distance should be positive for a bursty app")
	}
	if _, err := WindowAblation(Options{}, []int{0}); err == nil {
		t.Error("invalid window accepted")
	}
}

func TestQuantumAblation(t *testing.T) {
	rows, err := QuantumAblation(Options{}, []units.Time{100 * units.Millisecond, 400 * units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Shorter quanta -> more context switches per second.
	if rows[0].ContextSwitchesPerSec <= rows[1].ContextSwitchesPerSec {
		t.Errorf("context switch rate should fall with quantum: %.1f vs %.1f",
			rows[0].ContextSwitchesPerSec, rows[1].ContextSwitchesPerSec)
	}
	if _, err := QuantumAblation(Options{}, []units.Time{0}); err == nil {
		t.Error("invalid quantum accepted")
	}
}

func TestManagerOverheadBounded(t *testing.T) {
	res, err := ManagerOverhead(Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Positive but within the paper's worst-case 4.5% ballpark.
	if res.OverheadPercent < 0 || res.OverheadPercent > 6 {
		t.Errorf("manager overhead = %.2f%%, want within (0, ~4.5]", res.OverheadPercent)
	}
}

func TestSchedulerZoo(t *testing.T) {
	rows, err := SchedulerZoo(Options{}, "BT")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ZooRow{}
	for _, r := range rows {
		byName[r.Scheduler] = r
	}
	for _, name := range []string{"Linux", "RR", "GangRR", "LatestQuantum", "QuantaWindow", "EWMA", "Oracle", "Optimal"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing scheduler %s", name)
		}
	}
	// The bandwidth-aware policies should beat plain gang round-robin,
	// which should beat thread-level RR without affinity.
	if byName["QuantaWindow"].MeanTurnaround >= byName["RR"].MeanTurnaround {
		t.Error("QuantaWindow should beat RR")
	}
	if _, err := SchedulerZoo(Options{}, "NoSuchApp"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestSamplingAblation(t *testing.T) {
	rows, err := SamplingAblation(Options{}, []string{"CG"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// Requirement-corrected sampling must not lose to raw consumption
	// on the saturated set — the correction is the point.
	if r.RequirementsImprovement < r.ConsumptionImprovement-2 {
		t.Errorf("requirements %.1f%% vs consumption %.1f%%: correction should help",
			r.RequirementsImprovement, r.ConsumptionImprovement)
	}
	// The guarded variant stays in the same ballpark.
	if r.GuardedImprovement < 0 {
		t.Errorf("guarded improvement = %.1f%%, want non-negative", r.GuardedImprovement)
	}
	if _, err := SamplingAblation(Options{}, []string{"NoSuchApp"}); err == nil {
		t.Error("unknown app accepted")
	}
}

// TestFigureSweepDeterminism is the parallel runner's acceptance
// gate: the figure sweep must produce identical rows under serial
// execution (Workers: 1) and a saturated worker pool. Every cell
// carries its own seed, scheduler and freshly built workload, so
// completion order cannot leak into the output.
func TestFigureSweepDeterminism(t *testing.T) {
	serial := Options{Workers: 1, LinuxSeeds: []int64{1}}
	parallel := Options{Workers: 8, LinuxSeeds: []int64{1}}

	f1s, err := Figure1(serial)
	if err != nil {
		t.Fatal(err)
	}
	f1p, err := Figure1(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1s, f1p) {
		t.Error("Figure 1 rows differ between serial and parallel execution")
	}

	f2s, err := Figure2(SetMixed, serial)
	if err != nil {
		t.Fatal(err)
	}
	f2p, err := Figure2(SetMixed, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f2s, f2p) {
		t.Error("Figure 2C rows differ between serial and parallel execution")
	}
}

// TestSweepMetrics checks the run-level metrics layer: every batch an
// experiment submits is observed, and the totals add up across
// batches.
func TestSweepMetrics(t *testing.T) {
	m := runner.NewMetrics()
	opt := Options{LinuxSeeds: []int64{1}, Metrics: m}
	if _, err := Calibrate(opt); err != nil {
		t.Fatal(err)
	}
	bt, ok := workload.ByName("BT")
	if !ok {
		t.Fatal("BT missing from registry")
	}
	if _, err := opt.runCells("figure2/BT", figure2Cells(SetMixed, opt, bt)); err != nil {
		t.Fatal(err)
	}
	batches := m.Batches()
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2 (calibration + figure2 cell batch)", len(batches))
	}
	if batches[0].Name != "calibration" {
		t.Errorf("first batch = %q", batches[0].Name)
	}
	// BT panel batch: 1 Linux seed + LQ + QW = 3 cells.
	if got := len(batches[1].Report.Cells); got != 3 {
		t.Errorf("figure2 batch cells = %d, want 3", got)
	}
	tot := m.Total()
	if tot.Cells != 4 || tot.Failed != 0 {
		t.Errorf("totals: %+v", tot)
	}
	if tot.Quanta <= 0 || tot.SimTime <= 0 || tot.CellWall <= 0 {
		t.Errorf("metrics did not accumulate: %+v", tot)
	}
	sum := 0
	for _, b := range batches {
		sum += b.Report.TotalQuanta()
	}
	if sum != tot.Quanta {
		t.Errorf("quanta totals do not add up: %d vs %d", sum, tot.Quanta)
	}
	if tot.BusUtilization <= 0 || tot.BusUtilization > 1 {
		t.Errorf("bus utilization = %v", tot.BusUtilization)
	}
}

func TestWorkloadSetNames(t *testing.T) {
	for set, want := range map[WorkloadSet]string{
		SetBBMA: "2Apps+4BBMA", SetNBBMA: "2Apps+4nBBMA", SetMixed: "2Apps+2BBMA+2nBBMA", WorkloadSet(9): "unknown",
	} {
		if set.String() != want {
			t.Errorf("set %d = %q, want %q", set, set.String(), want)
		}
	}
}

func TestBuildSetComposition(t *testing.T) {
	p, ok := workload.ByName("CG")
	if !ok {
		t.Fatal("CG missing")
	}
	apps := SetMixed.mix(p).Build()
	if len(apps) != 6 {
		t.Fatalf("mixed set size = %d", len(apps))
	}
	counts := map[string]int{}
	for _, a := range apps {
		counts[a.Profile.Name]++
	}
	if counts["CG"] != 2 || counts["BBMA"] != 2 || counts["nBBMA"] != 2 {
		t.Errorf("composition = %v", counts)
	}
}

func TestRobustness(t *testing.T) {
	res, err := Robustness(Options{LinuxSeeds: []int64{1}}, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads != 8 || res.LQ.N != 8 || res.QW.N != 8 {
		t.Fatalf("bookkeeping: %+v", res)
	}
	// The policies should win on a clear majority of random workloads
	// and on average.
	if res.QWWins < 6 {
		t.Errorf("QW won only %d/8 random workloads", res.QWWins)
	}
	if res.QW.Mean <= 0 {
		t.Errorf("QW mean improvement %.1f%%, want positive", res.QW.Mean)
	}
	if res.LQ.Mean <= 0 {
		t.Errorf("LQ mean improvement %.1f%%, want positive", res.LQ.Mean)
	}
	// Determinism: same seed, same outcome.
	res2, err := Robustness(Options{LinuxSeeds: []int64{1}}, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res2.QW.Mean != res.QW.Mean || res2.LQ.Mean != res.LQ.Mean {
		t.Error("robustness sweep not deterministic")
	}
}

func TestServerWorkloads(t *testing.T) {
	rows, err := ServerWorkloads(Options{LinuxSeeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LinuxTurnaround <= 0 || r.QWTurnaround <= 0 {
			t.Errorf("%s: incomplete row %+v", r.App, r)
		}
		// Server workloads without gang barriers still benefit from
		// bandwidth-aware pairing; demand at least non-catastrophic
		// behaviour and a clear QW win on the database (migration
		// sensitive, so affinity-preserving gangs help).
		if r.QWImprovement < -10 {
			t.Errorf("%s: QW improvement %.1f%%", r.App, r.QWImprovement)
		}
	}
}

func TestSMTStudy(t *testing.T) {
	rows, err := SMTStudy(Options{LinuxSeeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SMTOff <= 0 || r.SMTOn <= 0 {
			t.Errorf("%s: incomplete %+v", r.Policy, r)
		}
		// Hyperthreading on a bus-bound workload should not double
		// throughput; sanity-bound the speedup.
		if r.SpeedupPercent > 60 {
			t.Errorf("%s: implausible SMT speedup %.1f%%", r.Policy, r.SpeedupPercent)
		}
	}
}

// TestSMTStudyLinuxSeed checks that the SMT study's Linux row runs the
// first of Options.LinuxSeeds: its SMT-off turnaround equals a direct
// run of the same mix under Linux at that seed.
func TestSMTStudyLinuxSeed(t *testing.T) {
	rows, err := SMTStudy(Options{LinuxSeeds: []int64{7}})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.ParseMix("BT x2, BBMA x2, nBBMA x2")
	if err != nil {
		t.Fatal(err)
	}
	linux, err := sched.New("linux", machine.DefaultConfig(), 7, sched.Params{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run(sim.Config{}, linux, mix.Build())
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Policy != "Linux" {
		t.Fatalf("first SMT row is %s, want Linux", rows[0].Policy)
	}
	if got, want := rows[0].SMTOff, direct.MeanTurnaround(); got != want {
		t.Errorf("Linux SMT-off turnaround %v, want the seed-7 run's %v", got, want)
	}
}
