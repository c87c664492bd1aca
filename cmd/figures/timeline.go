package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"busaware"
	"busaware/internal/report"
	"busaware/internal/runner"
	"busaware/internal/sim"
	"busaware/internal/workload"
)

// timelineSpec is the workload the telemetry figure runs: the paper's
// saturated shape (a bandwidth-hungry application pair against BBMA
// antagonists), which is where admission decisions and bus saturation
// actually show up in the windows.
const timelineSpec = "CG x2, BBMA x4"

// timelinePolicies contrasts the baseline that ignores the bus with
// the paper's headline policy.
var timelinePolicies = []string{busaware.PolicyLinux, busaware.PolicyQuantaWindow}

// policyWindows is one policy's telemetry: the retained windows plus
// the run summary.
type policyWindows struct {
	Policy  string
	Windows []busaware.TimelineWindow
	Summary busaware.TimelineWindow
}

// timelineFigure runs the saturated mix under each policy on opt's
// engine with a per-quantum collector attached, renders the windows as
// a table, and optionally writes them to outPath (CSV or NDJSON by
// extension).
func timelineFigure(opt busaware.ExperimentOptions, emit func(*report.Table), outPath string) error {
	mix, err := workload.ParseMix(timelineSpec)
	if err != nil {
		return err
	}
	var recs []policyWindows
	for _, policy := range timelinePolicies {
		col, err := busaware.NewTimelineCollector(busaware.TimelineConfig{QuantaPerWindow: 32})
		if err != nil {
			return err
		}
		cell := runner.Cell{Apps: mix, Policy: policy, Seed: 1, Config: sim.Config{Timeline: col, Engine: opt.Engine}}
		if _, err := cell.Simulate(); err != nil {
			return err
		}
		recs = append(recs, policyWindows{Policy: policy, Windows: col.Windows(), Summary: col.Summary()})
	}

	t := report.NewTable(
		fmt.Sprintf("Per-window telemetry: %s (32-quantum windows)", timelineSpec),
		"Policy", "Win", "Start", "Quanta", "UtilMean", "UtilMax", "StretchMax",
		"RunnableMean", "Deferred%", "Sat", "Idle", "Faults")
	for _, rec := range recs {
		for _, w := range rec.Windows {
			t.AddRowf(rec.Policy, fmt.Sprint(w.Seq),
				busaware.Time(w.StartUsec).String(), fmt.Sprint(w.Quanta),
				w.UtilMean(), w.UtilMax, w.StretchMax,
				w.RunnableMean(), 100*w.DeferredFrac(),
				fmt.Sprint(w.Saturated), fmt.Sprint(w.Idle), fmt.Sprint(w.Faults))
		}
		s := rec.Summary
		t.AddRowf(rec.Policy, "TOTAL",
			busaware.Time(s.StartUsec).String(), fmt.Sprint(s.Quanta),
			s.UtilMean(), s.UtilMax, s.StretchMax,
			s.RunnableMean(), 100*s.DeferredFrac(),
			fmt.Sprint(s.Saturated), fmt.Sprint(s.Idle), fmt.Sprint(s.Faults))
	}
	emit(t)

	if outPath == "" {
		return nil
	}
	return writeTimelineArtifact(outPath, recs)
}

// writeTimelineArtifact persists the windows machine-readably: CSV for
// a .csv path, NDJSON (one {"policy","window"} object per line, the
// same window schema the /v1/timeline stream carries) otherwise.
func writeTimelineArtifact(path string, recs []policyWindows) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if strings.HasSuffix(path, ".csv") {
		err = writeTimelineCSV(w, recs)
	} else {
		err = writeTimelineNDJSON(w, recs)
	}
	if err == nil {
		err = w.Flush()
	}
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

func writeTimelineCSV(w *bufio.Writer, recs []policyWindows) error {
	if _, err := fmt.Fprintln(w, "policy,seq,start_usec,end_usec,quanta,util_mean,util_max,served_mean,stretch_max,placed,runnable,admitted,deferred,saturated,idle,faults"); err != nil {
		return err
	}
	for _, rec := range recs {
		for _, win := range rec.Windows {
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%g,%g,%g,%g,%d,%d,%d,%d,%d,%d,%d\n",
				rec.Policy, win.Seq, win.StartUsec, win.EndUsec, win.Quanta,
				win.UtilMean(), win.UtilMax, win.ServedMean(), win.StretchMax,
				win.Placed, win.Runnable, win.Admitted, win.Deferred,
				win.Saturated, win.Idle, win.Faults); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeTimelineNDJSON(w *bufio.Writer, recs []policyWindows) error {
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		for _, win := range rec.Windows {
			line := struct {
				Policy string                  `json:"policy"`
				Window busaware.TimelineWindow `json:"window"`
			}{rec.Policy, win}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return nil
}
