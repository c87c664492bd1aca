package experiments

import (
	"fmt"
	"math"

	"busaware/internal/runner"
	"busaware/internal/sched"
	"busaware/internal/sim"
	"busaware/internal/stats"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// WindowAblationRow quantifies the window-length tradeoff the paper
// discusses when it picks W = 5: longer windows track an irregular
// transaction pattern less closely (higher distance) but give a more
// stable estimate (lower variance), trading responsiveness for
// stability.
type WindowAblationRow struct {
	Window int
	// TrackingDistance is the mean |sample - window mean| normalized
	// by the mean sample, over the application's per-quantum demand
	// series ("the average distance between the observed transactions
	// pattern and the moving window average").
	TrackingDistance float64
	// EstimateStdDev is the standard deviation of the window estimate
	// across quanta — the stability side of the tradeoff.
	EstimateStdDev float64
	// RaytraceImprovement is the Quanta-Window-with-this-window
	// improvement over Linux on the Raytrace + 4 nBBMA workload.
	RaytraceImprovement float64
}

// demandSeries samples a profile's per-thread demand averaged over
// each scheduling quantum, for horizon quanta.
func demandSeries(p workload.Profile, quantum units.Time, horizon int) []float64 {
	series := make([]float64, 0, horizon)
	// A single-thread clone walks the phase clock without tripping the
	// gang-barrier logic.
	p.Threads = 1
	app := workload.NewApp(p, "series")
	th := app.Threads[0]
	const tick = units.Millisecond
	for q := 0; q < horizon; q++ {
		var sum float64
		n := int(quantum / tick)
		for i := 0; i < n; i++ {
			sum += float64(th.CurrentPhase().Demand)
			// Walk the phase clock without bus interaction.
			th.AdvanceWork(float64(tick))
		}
		series = append(series, sum/float64(n))
	}
	return series
}

// WindowAblation sweeps window lengths on the Raytrace pattern.
func WindowAblation(opt Options, windows []int) ([]WindowAblationRow, error) {
	if len(windows) == 0 {
		windows = []int{1, 2, 3, 5, 8, 12}
	}
	rt, ok := workload.ByName("Raytrace")
	if !ok {
		return nil, fmt.Errorf("experiments: Raytrace missing from registry")
	}
	series := demandSeries(rt, sched.DefaultQuantum, 200)
	mean := stats.Mean(series)

	// The Linux baseline is window-independent; the per-window policy
	// runs are independent of each other, so they fan out as one batch.
	var cells []runner.Cell
	for _, w := range windows {
		if w < 1 {
			return nil, fmt.Errorf("experiments: window %d", w)
		}
		c := opt.cell(fmt.Sprintf("ablw/W%d", w), "window", 0, SetNBBMA.mix(rt))
		c.Params.Window = w
		cells = append(cells, c)
	}
	linux, err := meanLinuxTurnaround(opt, rt, SetNBBMA)
	if err != nil {
		return nil, err
	}
	results, err := opt.runCells("ablation/window", cells)
	if err != nil {
		return nil, err
	}

	var rows []WindowAblationRow
	for i, w := range windows {
		win := stats.NewWindow(w)
		var dist float64
		var estimates []float64
		for _, x := range series {
			win.Push(x)
			est := win.Mean()
			dist += math.Abs(x - est)
			estimates = append(estimates, est)
		}
		rows = append(rows, WindowAblationRow{
			Window:              w,
			TrackingDistance:    dist / float64(len(series)) / mean,
			EstimateStdDev:      stats.StdDev(estimates),
			RaytraceImprovement: improvement(linux, results[i].MeanTurnaround()),
		})
	}
	return rows, nil
}

// QuantumAblationRow reproduces the paper's Section 5 discussion of
// the manager quantum: 100 ms caused "an excessive number of context
// switches" against the kernel scheduler, so the authors settled on
// 200 ms.
type QuantumAblationRow struct {
	Quantum units.Time
	// ContextSwitchesPerSec measured machine-wide.
	ContextSwitchesPerSec float64
	MigrationsPerSec      float64
	// Improvement of Quanta Window over Linux on the mixed set for a
	// representative application (BT).
	Improvement float64
}

// QuantumAblation sweeps the manager quantum.
func QuantumAblation(opt Options, quanta []units.Time) ([]QuantumAblationRow, error) {
	if len(quanta) == 0 {
		quanta = []units.Time{50 * units.Millisecond, 100 * units.Millisecond, 200 * units.Millisecond, 400 * units.Millisecond}
	}
	bt, ok := workload.ByName("BT")
	if !ok {
		return nil, fmt.Errorf("experiments: BT missing from registry")
	}
	var cells []runner.Cell
	for _, q := range quanta {
		if q <= 0 {
			return nil, fmt.Errorf("experiments: quantum %v", q)
		}
		c := opt.cell(fmt.Sprintf("ablq/%s", q), "window", 0, SetMixed.mix(bt))
		c.Params.Quantum = q
		cells = append(cells, c)
	}
	linux, err := meanLinuxTurnaround(opt, bt, SetMixed)
	if err != nil {
		return nil, err
	}
	results, err := opt.runCells("ablation/quantum", cells)
	if err != nil {
		return nil, err
	}
	var rows []QuantumAblationRow
	for i, q := range quanta {
		res := results[i]
		secs := res.EndTime.Seconds()
		if secs <= 0 {
			secs = 1
		}
		rows = append(rows, QuantumAblationRow{
			Quantum:               q,
			ContextSwitchesPerSec: float64(res.ContextSwitches) / secs,
			MigrationsPerSec:      float64(res.Migrations) / secs,
			Improvement:           improvement(linux, res.MeanTurnaround()),
		})
	}
	return rows, nil
}

// OverheadResult measures the user-level CPU manager's cost in the
// paper's worst case: multiple identical copies of a low-bandwidth
// application (maximum blocking/unblocking and sampling relative to
// useful work). The paper reports at most 4.5%.
type OverheadResult struct {
	// BaselineTurnaround is the mean turnaround with a free manager.
	BaselineTurnaround units.Time
	// ManagedTurnaround includes the per-quantum manager cost.
	ManagedTurnaround units.Time
	// OverheadPercent is the relative slowdown.
	OverheadPercent float64
}

// ManagerOverhead runs the worst-case workload with and without the
// modelled manager cost.
func ManagerOverhead(opt Options, perQuantum units.Time) (OverheadResult, error) {
	if perQuantum <= 0 {
		perQuantum = 2 * units.Millisecond
	}
	vol, ok := workload.ByName("Volrend")
	if !ok {
		return OverheadResult{}, fmt.Errorf("experiments: Volrend missing from registry")
	}
	mix := workload.Mix{{Profile: vol, Count: 3}}
	managed := opt.cell("overhead/managed", "window", 0, mix)
	managed.Config.ManagerOverhead = perQuantum
	results, err := opt.runCells("overhead", []runner.Cell{
		opt.cell("overhead/unmanaged", "window", 0, mix), managed,
	})
	if err != nil {
		return OverheadResult{}, err
	}
	out := OverheadResult{
		BaselineTurnaround: results[0].MeanTurnaround(),
		ManagedTurnaround:  results[1].MeanTurnaround(),
	}
	if out.BaselineTurnaround > 0 {
		out.OverheadPercent = float64(out.ManagedTurnaround-out.BaselineTurnaround) /
			float64(out.BaselineTurnaround) * 100
	}
	return out, nil
}

// ZooRow compares every scheduler in the repository on one workload —
// the extension ablation isolating gang scheduling, bandwidth
// awareness, and estimator quality.
type ZooRow struct {
	Scheduler      string
	MeanTurnaround units.Time
	// ImprovementVsLinux in percent.
	ImprovementVsLinux float64
}

// SchedulerZoo runs the full scheduler lineup on the mixed set for the
// given application profile.
func SchedulerZoo(opt Options, appName string) ([]ZooRow, error) {
	p, ok := workload.ByName(appName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown application %q", appName)
	}
	linux, err := meanLinuxTurnaround(opt, p, SetMixed)
	if err != nil {
		return nil, err
	}
	var cells []runner.Cell
	for _, policy := range []string{"rr", "gang", "latest", "window", "ewma", "oracle", "optimal"} {
		cells = append(cells, opt.cell("zoo/"+policy, policy, 0, SetMixed.mix(p)))
	}
	results, err := opt.runCells("zoo", cells)
	if err != nil {
		return nil, err
	}
	rows := []ZooRow{{Scheduler: "Linux", MeanTurnaround: linux, ImprovementVsLinux: 0}}
	for _, res := range results {
		if res.TimedOut {
			return nil, fmt.Errorf("experiments: %s timed out in zoo", res.Scheduler)
		}
		rows = append(rows, ZooRow{
			Scheduler:          res.Scheduler,
			MeanTurnaround:     res.MeanTurnaround(),
			ImprovementVsLinux: improvement(linux, res.MeanTurnaround()),
		})
	}
	return rows, nil
}

// SamplingAblationRow contrasts the two estimator inputs on the
// saturated set: requirement-corrected sampling (default) versus raw
// consumption, which deflates under contention and blinds the fitness
// metric (see sim.SampleMode) — plus the optional saturation-guarded
// selection variant.
type SamplingAblationRow struct {
	App                     string
	RequirementsImprovement float64
	ConsumptionImprovement  float64
	GuardedImprovement      float64
}

// SamplingAblation measures both sampling modes plus the
// saturation-guarded selection for a few representative applications.
func SamplingAblation(opt Options, appNames []string) ([]SamplingAblationRow, error) {
	if len(appNames) == 0 {
		appNames = []string{"Radiosity", "BT", "CG"}
	}
	profiles := make([]workload.Profile, len(appNames))
	var cells []runner.Cell
	for i, name := range appNames {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown application %q", name)
		}
		profiles[i] = p
		mix := SetBBMA.mix(p)
		consumption := opt.cell(fmt.Sprintf("sampling/%s/consumption", name), "window", 0, mix)
		consumption.Config.Sampling = sim.SampleConsumption
		guarded := opt.cell(fmt.Sprintf("sampling/%s/guarded", name), "window", 0, mix)
		guarded.Params.Guard = true
		cells = append(cells, opt.linuxCells(p, SetBBMA)...)
		cells = append(cells,
			opt.cell(fmt.Sprintf("sampling/%s/requirements", name), "window", 0, mix),
			consumption, guarded)
	}
	results, err := opt.runCells("ablation/sampling", cells)
	if err != nil {
		return nil, err
	}
	per := len(opt.seeds()) + 3
	var rows []SamplingAblationRow
	for i, p := range profiles {
		chunk := results[i*per : (i+1)*per]
		linux, err := meanLinuxFromResults(p, SetBBMA, chunk[:len(opt.seeds())])
		if err != nil {
			return nil, err
		}
		policy := chunk[len(opt.seeds()):]
		rows = append(rows, SamplingAblationRow{
			App:                     p.Name,
			RequirementsImprovement: improvement(linux, policy[0].MeanTurnaround()),
			ConsumptionImprovement:  improvement(linux, policy[1].MeanTurnaround()),
			GuardedImprovement:      improvement(linux, policy[2].MeanTurnaround()),
		})
	}
	return rows, nil
}
