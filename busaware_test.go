package busaware

import (
	"testing"
)

func TestApplicationsRegistry(t *testing.T) {
	apps := Applications()
	if len(apps) != 11 {
		t.Fatalf("applications = %d, want 11", len(apps))
	}
	if apps[0].Name != "Radiosity" || apps[10].Name != "CG" {
		t.Errorf("ordering endpoints: %s .. %s", apps[0].Name, apps[10].Name)
	}
	if _, ok := AppByName("BBMA"); !ok {
		t.Error("BBMA missing")
	}
	if _, ok := AppByName("nope"); ok {
		t.Error("unknown app resolved")
	}
}

func TestNewSchedulerNames(t *testing.T) {
	m := PaperMachine()
	for _, name := range Policies() {
		s, err := NewScheduler(name, m, 7)
		if err != nil {
			t.Errorf("policy %q: %v", name, err)
			continue
		}
		if s.Quantum() <= 0 {
			t.Errorf("policy %q has no quantum", name)
		}
	}
	if _, err := NewScheduler("bogus", m, 0); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestRunPolicyEndToEnd(t *testing.T) {
	cg, ok := AppByName("CG")
	if !ok {
		t.Fatal("CG missing")
	}
	apps := Instances(cg, 1)
	res, err := RunPolicy(PolicyQuantaWindow, apps)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || len(res.Apps) != 1 || res.Apps[0].Turnaround <= 0 {
		t.Errorf("unexpected result: %+v", res)
	}
	if _, err := RunPolicy("bogus", apps); err == nil {
		t.Error("bogus policy accepted by RunPolicy")
	}
}

func TestPoliciesBeatLinuxHeadline(t *testing.T) {
	// The repository's headline claim, via the public API: on the
	// paper's saturated workload the bandwidth-aware policies beat the
	// Linux baseline.
	cg, _ := AppByName("CG")
	bbma, _ := AppByName("BBMA")
	build := func() []*App {
		apps := Instances(cg, 2)
		return append(apps, Instances(bbma, 4)...)
	}
	linux, err := RunPolicy(PolicyLinux, build())
	if err != nil {
		t.Fatal(err)
	}
	window, err := RunPolicy(PolicyQuantaWindow, build())
	if err != nil {
		t.Fatal(err)
	}
	if window.MeanTurnaround() >= linux.MeanTurnaround() {
		t.Errorf("QuantaWindow %v should beat Linux %v", window.MeanTurnaround(), linux.MeanTurnaround())
	}
}

func TestFacadeFigureWrappers(t *testing.T) {
	// Exercise the cheap figure wrappers through the public API; the
	// expensive panels are covered by internal/experiments tests and
	// the benchmarks.
	if _, err := Calibrate(ExperimentOptions{}); err != nil {
		t.Error(err)
	}
	if rows, err := MicrobenchmarkHitRates(); err != nil || len(rows) == 0 {
		t.Errorf("hit rates: %v, %d rows", err, len(rows))
	}
	if rows, err := AblateWindow(ExperimentOptions{LinuxSeeds: []int64{1}}, []int{1, 5}); err != nil || len(rows) != 2 {
		t.Errorf("window ablation: %v", err)
	}
	if rows, err := AblateQuantum(ExperimentOptions{LinuxSeeds: []int64{1}},
		[]Time{100 * Millisecond}); err != nil || len(rows) != 1 {
		t.Errorf("quantum ablation: %v", err)
	}
	if res, err := MeasureManagerOverhead(ExperimentOptions{}); err != nil || res.BaselineTurnaround <= 0 {
		t.Errorf("overhead: %v", err)
	}
	if rows, err := RunServerWorkloads(ExperimentOptions{LinuxSeeds: []int64{1}}); err != nil || len(rows) != 2 {
		t.Errorf("servers: %v", err)
	}
	if rows, err := RunSMTStudy(ExperimentOptions{LinuxSeeds: []int64{1}}); err != nil || len(rows) != 2 {
		t.Errorf("smt: %v", err)
	}
	if res, err := MeasureRobustness(ExperimentOptions{LinuxSeeds: []int64{1}}, 3, 7); err != nil || res.Workloads != 3 {
		t.Errorf("robustness: %v", err)
	}
	if rows, err := AblateSampling(ExperimentOptions{LinuxSeeds: []int64{1}}, []string{"Radiosity"}); err != nil || len(rows) != 1 {
		t.Errorf("sampling: %v", err)
	}
	if rows, err := CompareSchedulers(ExperimentOptions{LinuxSeeds: []int64{1}}, "Volrend"); err != nil || len(rows) < 7 {
		t.Errorf("zoo: %v", err)
	}
}

func TestFacadeFigure2Panels(t *testing.T) {
	if testing.Short() {
		t.Skip("panel sweep in short mode")
	}
	opt := ExperimentOptions{LinuxSeeds: []int64{1}}
	a, err := Figure2A(opt)
	if err != nil || len(a) != 11 {
		t.Fatalf("2A: %v", err)
	}
	s := SummarizeFigure2(SetBBMA, a)
	if s.QWMean <= 0 {
		t.Errorf("2A QW mean = %.1f", s.QWMean)
	}
	if _, err := Figure2B(opt); err != nil {
		t.Error(err)
	}
	if _, err := Figure2C(opt); err != nil {
		t.Error(err)
	}
	if rows, err := Figure1(opt); err != nil || len(rows) != 11 {
		t.Errorf("fig1: %v", err)
	}
}
