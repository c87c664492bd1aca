package experiments

import (
	"fmt"

	"busaware/internal/machine"
	"busaware/internal/runner"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// The paper's Section 6 names two future directions: testing the
// scheduler "with I/O and network-intensive workloads ... web and
// database servers", and extending it "in the context of
// multithreading processors". Both are implemented here as extension
// experiments.

// ServerRow is one server application's outcome on the mixed
// antagonist set: a Figure 2C row.
type ServerRow = Fig2Row

// ServerWorkloads runs the web-server and database profiles through
// the mixed antagonist set, exactly like a Figure 2C panel. Both
// profiles' cells fan out through the runner as one batch.
func ServerWorkloads(opt Options) ([]ServerRow, error) {
	return figure2Rows("servers", SetMixed, opt, workload.ServerProfiles())
}

// SMTRow compares one scheduling policy with hyperthreading off
// (4 logical = 4 physical processors, the paper's configuration)
// versus on (8 logical processors over 4 cores).
type SMTRow struct {
	Policy string
	// SMTOff and SMTOn are mean turnarounds of the BT mixed workload.
	SMTOff units.Time
	SMTOn  units.Time
	// SpeedupPercent is the throughput gained (or lost) by enabling
	// hyperthreading under this policy.
	SpeedupPercent float64
}

// SMTStudy measures how the policies exploit hyperthreading — the
// paper's "multithreading processors" future-work direction. The
// workload doubles with the logical processor count so both machines
// run at multiprogramming degree 2. The Linux row runs the first Linux
// seed only, as ChurnStudy's baseline does.
func SMTStudy(opt Options) ([]SMTRow, error) {
	bt, ok := workload.ByName("BT")
	if !ok {
		return nil, fmt.Errorf("experiments: BT missing from registry")
	}
	mix := func(scale int) workload.Mix {
		return workload.Mix{
			{Profile: bt, Count: 2 * scale},
			{Profile: workload.BBMA(), Count: 2 * scale},
			{Profile: workload.NBBMA(), Count: 2 * scale},
		}
	}
	off := machine.DefaultConfig() // 4 CPUs, SMT off
	on := off
	on.NumCPUs = off.NumCPUs * 2
	on.SMT = true

	var cells []runner.Cell
	for _, policy := range []string{"linux", "window"} {
		// The seed reaches only the Linux baseline (see sched.New).
		cOff := opt.cell("smt/"+policy+"/off", policy, opt.seeds()[0], mix(1))
		cOff.Config.Machine = off
		cOn := opt.cell("smt/"+policy+"/on", policy, opt.seeds()[0], mix(2))
		cOn.Config.Machine = on
		cells = append(cells, cOff, cOn)
	}
	results, err := opt.runCells("smt", cells)
	if err != nil {
		return nil, err
	}
	var rows []SMTRow
	for i := 0; i < len(results); i += 2 {
		resOff, resOn := results[i], results[i+1]
		if resOff.TimedOut || resOn.TimedOut {
			return nil, fmt.Errorf("experiments: SMT run timed out under %s", resOff.Scheduler)
		}
		row := SMTRow{
			Policy: resOff.Scheduler,
			SMTOff: resOff.MeanTurnaround(),
			SMTOn:  resOn.MeanTurnaround(),
		}
		// With twice the work and the same cores, finishing in under
		// 2x the time is an SMT win. Normalize per unit of work.
		offPerWork := float64(resOff.MeanTurnaround())
		onPerWork := float64(resOn.MeanTurnaround()) / 2
		if offPerWork > 0 {
			row.SpeedupPercent = (offPerWork - onPerWork) / offPerWork * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}
