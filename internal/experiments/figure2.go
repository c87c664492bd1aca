package experiments

import (
	"fmt"

	"busaware/internal/runner"
	"busaware/internal/sim"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Fig2Row is one application's bars in one panel of Figure 2: the
// percentage improvement of the mean application turnaround under each
// policy relative to the Linux baseline.
type Fig2Row struct {
	App string

	LinuxTurnaround units.Time
	LQTurnaround    units.Time
	QWTurnaround    units.Time

	// LQImprovement and QWImprovement are percentages; positive means
	// the policy beats Linux.
	LQImprovement float64
	QWImprovement float64
}

// Figure2 reproduces one panel of Figure 2 (A: SetBBMA, B: SetNBBMA,
// C: SetMixed) across the eleven applications. Every cell of the
// panel — per-seed Linux baselines plus both policies for each
// application — is independent, so the whole grid fans out through
// the parallel runner in a single batch.
func Figure2(set WorkloadSet, opt Options) ([]Fig2Row, error) {
	return figure2Rows(fmt.Sprintf("figure2/%s", set), set, opt, workload.PaperApps())
}

// figure2Rows runs the panel cells of every profile as one batch and
// assembles their rows, in profile order.
func figure2Rows(batch string, set WorkloadSet, opt Options, profiles []workload.Profile) ([]Fig2Row, error) {
	var cells []runner.Cell
	for _, p := range profiles {
		cells = append(cells, figure2Cells(set, opt, p)...)
	}
	results, err := opt.runCells(batch, cells)
	if err != nil {
		return nil, err
	}
	per := len(opt.seeds()) + 2
	var rows []Fig2Row
	for i, p := range profiles {
		row, err := figure2Row(set, opt, p, results[i*per:(i+1)*per])
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// figure2Cells builds one application's panel cells: the per-seed
// Linux baselines followed by Latest Quantum and Quanta Window.
func figure2Cells(set WorkloadSet, opt Options, p workload.Profile) []runner.Cell {
	return append(opt.linuxCells(p, set),
		opt.cell(fmt.Sprintf("LQ/%s/%s", p.Name, set), "latest", 0, set.mix(p)),
		opt.cell(fmt.Sprintf("QW/%s/%s", p.Name, set), "window", 0, set.mix(p)))
}

// figure2Row assembles one application's row from its cell results,
// in the order figure2Cells submitted them.
func figure2Row(set WorkloadSet, opt Options, p workload.Profile, results []sim.Result) (Fig2Row, error) {
	row := Fig2Row{App: p.Name}
	nSeeds := len(opt.seeds())
	linux, err := meanLinuxFromResults(p, set, results[:nSeeds])
	if err != nil {
		return row, err
	}
	row.LinuxTurnaround = linux
	lq, qw := results[nSeeds], results[nSeeds+1]
	if lq.TimedOut || qw.TimedOut {
		return row, fmt.Errorf("experiments: fig2 policy run timed out for %s/%s", p.Name, set)
	}
	row.LQTurnaround = lq.MeanTurnaround()
	row.QWTurnaround = qw.MeanTurnaround()
	row.LQImprovement = improvement(linux, row.LQTurnaround)
	row.QWImprovement = improvement(linux, row.QWTurnaround)
	return row, nil
}

// Fig2Summary aggregates a panel the way the paper quotes it.
type Fig2Summary struct {
	Set            WorkloadSet
	LQMean, QWMean float64
	LQMin, QWMin   float64
	LQMax, QWMax   float64
}

// Summarize computes the panel aggregate.
func Summarize(set WorkloadSet, rows []Fig2Row) Fig2Summary {
	s := Fig2Summary{Set: set}
	if len(rows) == 0 {
		return s
	}
	s.LQMin, s.QWMin = rows[0].LQImprovement, rows[0].QWImprovement
	s.LQMax, s.QWMax = s.LQMin, s.QWMin
	for _, r := range rows {
		s.LQMean += r.LQImprovement
		s.QWMean += r.QWImprovement
		if r.LQImprovement < s.LQMin {
			s.LQMin = r.LQImprovement
		}
		if r.LQImprovement > s.LQMax {
			s.LQMax = r.LQImprovement
		}
		if r.QWImprovement < s.QWMin {
			s.QWMin = r.QWImprovement
		}
		if r.QWImprovement > s.QWMax {
			s.QWMax = r.QWImprovement
		}
	}
	s.LQMean /= float64(len(rows))
	s.QWMean /= float64(len(rows))
	return s
}
