package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"busaware/internal/sim"
)

// TestPaperFacingNumbers pins the reproduction's headline numbers, as
// cmd/figures prints them at default seeds on the event engine, to
// explicit shape claims and numeric bands. The bands sit around the
// reproduction's own values, not the paper's (EXPERIMENTS.md compares
// the two). A change that deliberately moves output bits must leave
// them where they are. The numbers README.md and EXPERIMENTS.md quote
// must be the ones computed here, so neither doc can drift.
func TestPaperFacingNumbers(t *testing.T) {
	opt := Options{Engine: sim.EngineEvent}

	// Calibration: STREAM's sustained rate within 8% of the paper's
	// 29.5 trans/µs.
	cal, err := Calibrate(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(cal.SustainedRate); math.Abs(got-29.5)/29.5 > 0.08 {
		t.Errorf("calibrated sustained rate %.2f trans/µs, want within 8%% of 29.5", got)
	}

	// Figure 1B: CG next to two BBMA slows down 2x to 3x.
	fig1, err := Figure1(opt)
	if err != nil {
		t.Fatal(err)
	}
	cgSlowdown := math.NaN()
	for _, r := range fig1 {
		if r.App == "CG" {
			cgSlowdown = r.WithBBMASlowdown
		}
	}
	if math.IsNaN(cgSlowdown) {
		t.Fatal("Figure 1 has no CG row")
	}
	if cgSlowdown < 2 || cgSlowdown > 3 {
		t.Errorf("Figure 1B: CG + 2 BBMA slowdown %.2fx, want 2x-3x", cgSlowdown)
	}

	type band struct{ lo, hi float64 }
	in := func(v float64, b band) bool { return v >= b.lo && v <= b.hi }
	// Panel averages (LQ, QW): today's values ±1 percentage point.
	means := map[WorkloadSet][2]band{
		SetBBMA:  {{23.5, 25.5}, {24, 26}},
		SetNBBMA: {{28.2, 30.2}, {29, 31}},
		SetMixed: {{14, 16}, {14.7, 16.7}},
	}
	panels := map[WorkloadSet][]Fig2Row{}
	sums := map[WorkloadSet]Fig2Summary{}
	for _, set := range []WorkloadSet{SetBBMA, SetNBBMA, SetMixed} {
		rows, err := Figure2(set, opt)
		if err != nil {
			t.Fatal(err)
		}
		panels[set] = rows
		s := Summarize(set, rows)
		sums[set] = s
		want := means[set]
		if !in(s.LQMean, want[0]) || !in(s.QWMean, want[1]) {
			t.Errorf("Figure 2 %s: averages LQ %.2f%% / QW %.2f%%, want LQ in [%v, %v] and QW in [%v, %v]",
				set, s.LQMean, s.QWMean, want[0].lo, want[0].hi, want[1].lo, want[1].hi)
		}
	}

	// Figure 2A: both policies beat Linux on all 11 apps; the five
	// lowest-bandwidth apps gain little and the five highest gain most.
	low := map[string]bool{"Radiosity": true, "Water-nsqr": true, "Volrend": true, "Barnes": true, "FMM": true}
	high := map[string]bool{"BT": true, "SP": true, "MG": true, "Raytrace": true, "CG": true}
	lowBand, highBand := band{2.5, 14}, band{30.5, 41.5}
	rows2a := panels[SetBBMA]
	if len(rows2a) != 11 {
		t.Fatalf("Figure 2A has %d rows, want 11", len(rows2a))
	}
	for _, r := range rows2a {
		for _, v := range []float64{r.LQImprovement, r.QWImprovement} {
			if v <= 0 {
				t.Errorf("Figure 2A %s: improvement %.2f%%, want positive", r.App, v)
			}
			if low[r.App] && !in(v, lowBand) {
				t.Errorf("Figure 2A %s: improvement %.2f%%, want in [%v, %v]", r.App, v, lowBand.lo, lowBand.hi)
			}
			if high[r.App] && !in(v, highBand) {
				t.Errorf("Figure 2A %s: improvement %.2f%%, want in [%v, %v]", r.App, v, highBand.lo, highBand.hi)
			}
		}
	}

	// Figure 2B: Raytrace is QW's worst case.
	worst := panels[SetNBBMA][0]
	for _, r := range panels[SetNBBMA] {
		if r.QWImprovement < worst.QWImprovement {
			worst = r
		}
	}
	if worst.App != "Raytrace" {
		t.Errorf("Figure 2B: QW's worst case is %s (%.2f%%), want Raytrace", worst.App, worst.QWImprovement)
	}

	// CPU-manager overhead in the worst case stays within the paper's
	// 4.5%.
	ovh, err := ManagerOverhead(opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ovh.OverheadPercent > 4.5 {
		t.Errorf("manager overhead %.2f%%, want <= 4.5%%", ovh.OverheadPercent)
	}

	// README's "Reproduced results at a glance" rows, in its own
	// format: one decimal for percentages, two for slowdowns.
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	pair := func(s Fig2Summary) string { return pct(s.LQMean) + " / " + pct(s.QWMean) }
	readme := readDoc(t, "README.md")
	for _, row := range [][2]string{
		{"Saturated-bus slowdown (CG + 2 BBMA)", fmt.Sprintf("%.2fx", cgSlowdown)},
		{"Fig 2A mean improvement (LQ / QW)", pair(sums[SetBBMA])},
		{"Fig 2B mean improvement (LQ / QW)", pair(sums[SetNBBMA])},
		{"Fig 2C mean improvement (LQ / QW)", pair(sums[SetMixed])},
		{"Manager overhead worst case", pct(ovh.OverheadPercent)},
	} {
		if got := glanceRow(readme, row[0]); got != row[1] {
			t.Errorf("README.md %q reads %q, computed %q", row[0], got, row[1])
		}
	}
	// EXPERIMENTS.md's bold "avg **x%**" under each Figure 2 heading:
	// LQ's first, then QW's.
	experiments := readDoc(t, "EXPERIMENTS.md")
	avg := regexp.MustCompile(`avg\s+\*\*([^*]+)\*\*`)
	for heading, set := range map[string]WorkloadSet{"F2A": SetBBMA, "F2B": SetNBBMA, "F2C": SetMixed} {
		var got []string
		for _, m := range avg.FindAllStringSubmatch(docSection(experiments, "## "+heading+" "), -1) {
			got = append(got, m[1])
		}
		want := []string{pct(sums[set].LQMean), pct(sums[set].QWMean)}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("EXPERIMENTS.md %s averages read %q, computed %q", heading, got, want)
		}
	}
}

// readDoc returns a document at the repository root.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// glanceRow returns the last cell of the markdown table row whose first
// cell is label, or "" when there is none.
func glanceRow(doc, label string) string {
	for _, line := range strings.Split(doc, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) > 3 && strings.TrimSpace(cells[1]) == label {
			return strings.TrimSpace(cells[len(cells)-2])
		}
	}
	return ""
}

// docSection returns doc from the line starting with heading up to the
// next "## " heading, or "" when there is no such line.
func docSection(doc, heading string) string {
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		return ""
	}
	rest := doc[i+1:]
	if j := strings.Index(rest[len(heading):], "\n## "); j >= 0 {
		return rest[:len(heading)+j]
	}
	return rest
}
