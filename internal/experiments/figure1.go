package experiments

import (
	"fmt"

	"busaware/internal/runner"
	"busaware/internal/sim"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Fig1Row reproduces one application's bars across Figure 1's four
// configurations: solo, two instances, one instance + 2 BBMA, and one
// instance + 2 nBBMA. Rates are the cumulative workload bus
// transaction rates (panel A); slowdowns are relative to the solo run
// (panel B). None of these configurations share processors: the four
// threads fit the four CPUs exactly.
type Fig1Row struct {
	App string

	// Panel A: cumulative bus transactions per usec.
	SoloRate      units.Rate
	TwoAppsRate   units.Rate
	WithBBMARate  units.Rate
	WithNBBMARate units.Rate

	// Panel B: arithmetic-mean slowdown of the application instances.
	TwoAppsSlowdown   float64
	WithBBMASlowdown  float64
	WithNBBMASlowdown float64
}

// fig1CellsPerApp is the number of Figure 1 configurations per
// application: solo, two instances, +2 BBMA, +2 nBBMA.
const fig1CellsPerApp = 4

// Figure1 reproduces Figure 1 (both panels) for the eleven paper
// applications, in increasing solo-rate order. All 44 configuration
// cells are independent, so they fan out through the parallel runner
// as one batch.
func Figure1(opt Options) ([]Fig1Row, error) {
	apps := workload.PaperApps()
	var cells []runner.Cell
	for _, p := range apps {
		cells = append(cells, figure1Cells(opt, p)...)
	}
	results, err := opt.runCells("figure1", cells)
	if err != nil {
		return nil, err
	}
	var rows []Fig1Row
	for i, p := range apps {
		lo, hi := i*fig1CellsPerApp, (i+1)*fig1CellsPerApp
		row, err := figure1Row(p, results[lo:hi])
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// figure1Cells builds one application's four dedicated-machine cells.
// Gang first-fit on a dedicated machine runs every thread every
// quantum in all four configurations: no processor sharing, as in the
// paper's Section 3 setup.
func figure1Cells(opt Options, p workload.Profile) []runner.Cell {
	mk := func(cfg string, mix ...workload.Group) runner.Cell {
		return opt.cell(fmt.Sprintf("fig1/%s/%s", p.Name, cfg), "gang", 0, mix)
	}
	return []runner.Cell{
		mk("solo", workload.Group{Profile: p, Count: 1}),
		mk("2apps", workload.Group{Profile: p, Count: 2}),
		mk("2bbma", workload.Group{Profile: p, Count: 1}, workload.Group{Profile: workload.BBMA(), Count: 2}),
		mk("2nbbma", workload.Group{Profile: p, Count: 1}, workload.Group{Profile: workload.NBBMA(), Count: 2}),
	}
}

// figure1Row assembles one application's row from its four results, in
// the order figure1Cells submitted them.
func figure1Row(p workload.Profile, results []sim.Result) (Fig1Row, error) {
	row := Fig1Row{App: p.Name}
	for _, res := range results {
		if res.TimedOut {
			return row, fmt.Errorf("experiments: fig1 run timed out for %s", p.Name)
		}
	}
	solo := results[0]
	row.SoloRate = cumulativeRate(solo)
	soloT := solo.Apps[0].Turnaround

	row.TwoAppsRate = cumulativeRate(results[1])
	row.TwoAppsSlowdown = meanSlowdown(results[1], soloT)

	row.WithBBMARate = cumulativeRate(results[2])
	row.WithBBMASlowdown = meanSlowdown(results[2], soloT)

	row.WithNBBMARate = cumulativeRate(results[3])
	row.WithNBBMASlowdown = meanSlowdown(results[3], soloT)
	return row, nil
}

// cumulativeRate is the workload's cumulative bus transaction rate:
// the finite apps' mean rates plus the microbenchmarks' transactions
// over the run, both summed in input order so the float accumulation
// is bit-for-bit reproducible.
func cumulativeRate(res sim.Result) units.Rate {
	var cum units.Rate
	for _, a := range res.Apps {
		cum += a.MeanBusRate
	}
	for _, r := range res.MicrobenchRates {
		cum += r
	}
	return cum
}

// meanSlowdown averages the instances' turnarounds against the solo
// turnaround, as the paper does ("the arithmetic mean of the slowdown
// of the two instances").
func meanSlowdown(res sim.Result, solo units.Time) float64 {
	if solo <= 0 || len(res.Apps) == 0 {
		return 0
	}
	var sum float64
	for _, a := range res.Apps {
		sum += float64(a.Turnaround) / float64(solo)
	}
	return sum / float64(len(res.Apps))
}
