package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T", "App", "Rate")
	tb.AddRow("CG", "23.31")
	tb.AddRow("Radiosity", "0.48")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "T") {
		t.Error("missing title")
	}
	// Columns align: "Rate" starts at the same offset everywhere.
	idx := strings.Index(lines[1], "Rate")
	for _, l := range lines[3:] {
		cell := strings.TrimLeft(l[idx:], " ")
		if cell != "23.31" && cell != "0.48" {
			t.Errorf("misaligned row: %q", l)
		}
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "dropped")
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	out := tb.String()
	if strings.Contains(out, "dropped") {
		t.Error("extra cell not dropped")
	}
}

func TestAddRowf(t *testing.T) {
	tb := NewTable("", "A", "B", "C")
	tb.AddRowf("x", 3.14159, 42)
	out := tb.String()
	if !strings.Contains(out, "3.14") || strings.Contains(out, "3.14159") {
		t.Errorf("float formatting wrong: %s", out)
	}
	if !strings.Contains(out, "42") {
		t.Errorf("int formatting wrong: %s", out)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("ignored", "name", "value")
	tb.AddRow("plain", "1")
	tb.AddRow("with,comma", `quote"inside`)
	csv := tb.CSV()
	want := "name,value\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestBarChartPositive(t *testing.T) {
	b := NewBarChart("chart", "%")
	b.Add("CG", 68)
	b.Add("Radiosity", 4)
	out := b.String()
	if !strings.Contains(out, "chart") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	cgBars := strings.Count(lines[1], "#")
	radBars := strings.Count(lines[2], "#")
	if cgBars <= radBars {
		t.Errorf("bar lengths: CG %d vs Radiosity %d", cgBars, radBars)
	}
	if cgBars != 40 {
		t.Errorf("max bar should fill width: %d", cgBars)
	}
}

func TestBarChartNegative(t *testing.T) {
	b := NewBarChart("", "%")
	b.Add("up", 10)
	b.Add("down", -5)
	out := b.String()
	if !strings.Contains(out, "-5.00") {
		t.Errorf("negative value missing: %s", out)
	}
	// The negative bar appears before the axis separator.
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "down") {
			bar := strings.Index(l, "#")
			axis := strings.Index(l, "|")
			if bar == -1 || axis == -1 || bar > axis {
				t.Errorf("negative bar not left of axis: %q", l)
			}
		}
	}
}

func TestBarChartEmpty(t *testing.T) {
	b := NewBarChart("empty", "x")
	if out := b.String(); !strings.Contains(out, "empty") {
		t.Errorf("empty chart output: %q", out)
	}
}

func TestBarChartZeros(t *testing.T) {
	b := NewBarChart("", "x")
	b.Add("a", 0)
	out := b.String() // must not divide by zero
	if !strings.Contains(out, "0.00") {
		t.Errorf("zero row missing: %q", out)
	}
}
