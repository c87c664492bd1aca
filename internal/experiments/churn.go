package experiments

import (
	"fmt"
	"strings"

	"busaware/internal/runner"
	"busaware/internal/scenario"
	"busaware/internal/sim"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// The churn study subjects every policy to the same mid-run flash
// crowd: a base pair of BT instances runs to completion while scenario
// jobs churn in and out underneath them. The paper's evaluation holds
// the multiprogramming mix fixed for a whole run; this extension asks
// whether the bandwidth-aware policies still protect turnaround when
// the mix itself is a moving target.

// ChurnPattern is the flash-crowd episode: a light steady load of two
// concurrent churn jobs, a 10s spike peaking at twelve, then recovery.
// (Deliberately gentler than the serving plane's flashcrowd preset —
// sixty concurrent gangs would swamp the 4-way machine for minutes and
// measure queueing, not scheduling.)
const ChurnPattern = "step:5s@2; spike:10s@2..12; step:15s@2"

// churnPool draws arrivals from two finite applications at opposite
// ends of the bandwidth axis, so completions-during-churn are
// observable within the base apps' lifetime.
const churnPool = "Volrend, CG"

const churnSeed = 1

// ChurnRow is one policy's outcome under the flash-crowd churn.
type ChurnRow struct {
	Policy string
	// BaseTurnaround is the mean turnaround of the base (non-churn)
	// apps — the figure's headline: how well the policy protected the
	// resident workload from the flash crowd.
	BaseTurnaround units.Time
	// Arrivals, Departures and Completed are the run's scenario
	// counters; Completed counts churn jobs that finished naturally
	// before the base apps did.
	Arrivals   int
	Departures int
	Completed  int
	// ImprovementVsLinux is the paper's metric over BaseTurnaround.
	ImprovementVsLinux float64
}

// ChurnStudy runs the flash-crowd scenario under the Linux baseline
// and both bandwidth-aware policies. The scenario schedule is
// materialized once — every policy faces the identical arrival and
// departure sequence — and the baseline uses the first Linux seed
// only, since the study varies the mix, not the baseline's shuffling.
func ChurnStudy(opt Options) ([]ChurnRow, error) {
	bt, ok := workload.ByName("BT")
	if !ok {
		return nil, fmt.Errorf("experiments: BT missing from registry")
	}
	churn, err := scenario.Materialize(scenario.ChurnSpec{
		Pattern: ChurnPattern, Pool: churnPool, Seed: churnSeed,
	})
	if err != nil {
		return nil, err
	}
	base := workload.Mix{{Profile: bt, Count: 2}}
	var cells []runner.Cell
	for _, policy := range []string{"linux", "latest", "window"} {
		// The seed reaches only the Linux baseline (see sched.New).
		c := opt.cell("churn/"+policy, policy, opt.seeds()[0], base)
		c.Config.Scenario = churn // read-only: safe to share across cells
		cells = append(cells, c)
	}
	results, err := opt.runCells("churn", cells)
	if err != nil {
		return nil, err
	}
	var rows []ChurnRow
	var linux units.Time
	for i, res := range results {
		if res.TimedOut {
			return nil, fmt.Errorf("experiments: churn run timed out under %s", res.Scheduler)
		}
		row := ChurnRow{
			Policy:         res.Scheduler,
			BaseTurnaround: baseMeanTurnaround(res),
			Arrivals:       res.ScenarioArrivals,
			Departures:     res.ScenarioDepartures,
			Completed:      res.ScenarioCompleted,
		}
		if i == 0 {
			linux = row.BaseTurnaround
		}
		row.ImprovementVsLinux = improvement(linux, row.BaseTurnaround)
		rows = append(rows, row)
	}
	return rows, nil
}

// baseMeanTurnaround averages the base apps only. Scenario instances
// are recognizable by the "/s" sequence marker in their instance names
// (see scenario.Materialize); Result.MeanTurnaround would fold
// naturally-completed churn jobs into the mean and reward policies for
// starving them.
func baseMeanTurnaround(res sim.Result) units.Time {
	var sum units.Time
	var n int
	for _, a := range res.Apps {
		if strings.Contains(a.Instance, "/s") {
			continue
		}
		sum += a.Turnaround
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / units.Time(n)
}
