// Command smpsim runs an arbitrary multiprogrammed workload on the
// simulated SMP under a chosen scheduling policy and prints
// per-application turnarounds plus machine-wide statistics.
//
// Usage:
//
//	smpsim -policy window -apps "CG x2, BBMA x4"
//	smpsim -policy linux -seed 7 -apps "Raytrace x2, nBBMA x4" -v
//	smpsim -json -apps "CG x2, BBMA x4"     # smpsimd response schema
//	smpsim -engine shadow -apps "CG x2, BBMA x4"   # verify event vs quantum
//	smpsim -apps "Barnes" -scenario flashcrowd -scenario-seed 7 -v
//
// The -apps grammar is a comma-separated list of "<name> [xN]" items;
// names come from the registry (the eleven paper applications, BBMA,
// nBBMA, STREAM). The same grammar drives the smpsimd HTTP daemon, and
// -json emits the exact response schema of POST /v1/simulate (with
// -timeline additionally embedding the Chrome trace, the counterpart
// of the API's "trace":true), so CLI and server outputs are diffable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"busaware"
	"busaware/internal/report"
	"busaware/internal/runner"
	"busaware/internal/server"
	"busaware/internal/sim"
	"busaware/internal/workload"
)

func main() {
	policy := flag.String("policy", busaware.PolicyQuantaWindow,
		fmt.Sprintf("scheduling policy: %s", strings.Join(busaware.Policies(), ", ")))
	appsSpec := flag.String("apps", "CG x2, BBMA x4", "workload: comma-separated '<name> [xN]' items")
	seed := flag.Int64("seed", 1, "seed for the Linux baseline's runqueue shuffling")
	engineName := flag.String("engine", "", "simulation engine: quantum (stepped reference, default), event (leaps constant stretches), shadow (runs both, fails on divergence)")
	cpus := flag.Int("cpus", 0, "override processor count (0 = paper machine's 4)")
	verbose := flag.Bool("v", false, "print machine-wide statistics")
	timeline := flag.Bool("timeline", false, "print an ASCII schedule timeline (with -json: embed the Chrome trace)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing)")
	jsonOut := flag.Bool("json", false, "emit the POST /v1/simulate response schema instead of tables")
	scenarioPat := flag.String("scenario", "", "churn scenario: load pattern or preset ("+strings.Join(busaware.LoadPatternPresets(), ", ")+") governing mid-run arrivals and departures")
	scenarioPool := flag.String("scenario-pool", "", "profile pool scenario arrivals draw from (default: the scenario package's pool)")
	scenarioSeed := flag.Int64("scenario-seed", 0, "seed for the scenario's pool draws")
	flag.Parse()

	mix, err := workload.ParseMix(*appsSpec)
	if err != nil {
		fatal(err)
	}
	engine, err := busaware.ParseEngine(*engineName)
	if err != nil {
		fatal(err)
	}
	cell := runner.Cell{Apps: mix, Policy: *policy, Seed: *seed,
		Config: sim.Config{Machine: busaware.PaperMachine(), Engine: engine}}
	if *cpus > 0 {
		cell.Config.Machine.NumCPUs = *cpus
	}
	if *scenarioPat != "" {
		cell.Config.Scenario, err = busaware.MaterializeChurn(busaware.ChurnSpec{
			Pattern: *scenarioPat, Pool: *scenarioPool, Seed: *scenarioSeed,
		})
		if err != nil {
			fatal(err)
		}
	} else if *scenarioPool != "" || *scenarioSeed != 0 {
		fatal(fmt.Errorf("-scenario-pool and -scenario-seed require -scenario"))
	}
	var tl *busaware.Timeline
	if *timeline || *traceOut != "" {
		tl = &busaware.Timeline{NumCPUs: cell.Config.Machine.NumCPUs}
		cell.Config.Trace = tl
	}
	res, err := cell.Simulate()
	if err != nil {
		fatal(err)
	}
	if res.TimedOut {
		fmt.Fprintln(os.Stderr, "smpsim: warning: run hit the simulation time cap before completing")
	}

	if *jsonOut {
		// The embedded trace mirrors the HTTP API's "trace" field: only
		// -timeline opts in; a -trace file is still written separately.
		var embed *busaware.Timeline
		if *timeline {
			embed = tl
		}
		resp, err := server.NewResponse(res, embed, nil)
		if err != nil {
			fatal(err)
		}
		body, err := resp.MarshalBody()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(body)
	} else {
		t := report.NewTable(fmt.Sprintf("Workload under %s", res.Scheduler),
			"Instance", "Profile", "Turnaround", "Slowdown", "MeanRate(trans/us)")
		for _, a := range res.Apps {
			t.AddRowf(a.Instance, a.Profile, a.Turnaround.String(),
				a.Slowdown, float64(a.MeanBusRate))
		}
		fmt.Println(t.String())

		if tl != nil && *timeline {
			fmt.Println(tl.Text())
		}
	}
	if tl != nil && *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tl.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("chrome trace written to %s\n", *traceOut)
		}
	}
	if *verbose && !*jsonOut {
		v := report.NewTable("Machine statistics", "Metric", "Value")
		v.AddRowf("Simulated time", res.EndTime.String())
		v.AddRowf("Quanta", fmt.Sprint(res.Quanta))
		v.AddRowf("Migrations", fmt.Sprint(res.Migrations))
		v.AddRowf("Context switches", fmt.Sprint(res.ContextSwitches))
		v.AddRowf("Mean bus utilization", res.MeanBusUtilization)
		v.AddRowf("Mean turnaround", res.MeanTurnaround().String())
		if cell.Config.Scenario != nil {
			v.AddRowf("Scenario arrivals", fmt.Sprint(res.ScenarioArrivals))
			v.AddRowf("Scenario departures", fmt.Sprint(res.ScenarioDepartures))
			v.AddRowf("Scenario completed", fmt.Sprint(res.ScenarioCompleted))
		}
		fmt.Println(v.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smpsim:", err)
	os.Exit(1)
}
