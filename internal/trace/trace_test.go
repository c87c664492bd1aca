package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"busaware/internal/timeline"
	"busaware/internal/units"
)

func sampleTimeline() *Timeline {
	t := &Timeline{}
	q := 200 * units.Millisecond
	t.Record(Slice{CPU: 0, Start: 0, Duration: q, Label: "CG#1/0", Speed: 0.9})
	t.Record(Slice{CPU: 1, Start: 0, Duration: q, Label: "CG#1/1", Speed: 0.9})
	t.Record(Slice{CPU: 2, Start: 0, Duration: q, Label: "BBMA#1/0", Speed: 0.4})
	t.Record(Slice{CPU: 0, Start: q, Duration: q, Label: "BBMA#2/0", Speed: 0.4, Migrated: true})
	t.RecordQuanta(timeline.Sample{DurUsec: int64(q), Utilization: 0.9, Served: 27}, nil, 1)
	return t
}

func TestTimelineBasics(t *testing.T) {
	tl := sampleTimeline()
	if tl.Len() != 4 {
		t.Fatalf("len = %d", tl.Len())
	}
	if tl.NumCPUs != 3 {
		t.Errorf("NumCPUs = %d, want 3", tl.NumCPUs)
	}
	start, end := tl.Span()
	if start != 0 || end != 400*units.Millisecond {
		t.Errorf("span = %v..%v", start, end)
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := &Timeline{}
	if s, e := tl.Span(); s != 0 || e != 0 {
		t.Error("empty span should be zero")
	}
	if !strings.Contains(tl.Text(), "empty") {
		t.Error("empty text missing marker")
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 0 {
		t.Errorf("empty timeline produced %d events", len(events))
	}
}

func TestTextRendering(t *testing.T) {
	out := sampleTimeline().Text()
	for _, want := range []string{"cpu0", "cpu1", "cpu2", "CG1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text missing %q:\n%s", want, out)
		}
	}
	// Idle cells are dotted.
	if !strings.Contains(out, "....") {
		t.Errorf("idle cells missing:\n%s", out)
	}
}

func TestAbbrev(t *testing.T) {
	tests := map[string]string{
		"CG#1/0":        "CG10",
		"Radiosity#2/1": "Ra21",
		"BBMA#1/0":      "BB10",
		"X":             "X   ",
	}
	for in, want := range tests {
		if got := abbrev(in); got != want {
			t.Errorf("abbrev(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTimeline().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   int64             `json:"ts"`
		Dur  int64             `json:"dur"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if len(events) != 5 { // 4 slices + 1 bus stat
		t.Fatalf("events = %d, want 5", len(events))
	}
	// Sorted by timestamp.
	for i := 1; i < len(events); i++ {
		if events[i].TS < events[i-1].TS {
			t.Error("events not sorted by ts")
		}
	}
	var sawMigrated, sawBus bool
	for _, e := range events {
		if e.Ph != "X" {
			t.Errorf("phase = %q, want X", e.Ph)
		}
		if e.Args["migrated"] == "true" {
			sawMigrated = true
		}
		if e.Name == "bus" {
			sawBus = true
			if e.Args["utilization"] == "" {
				t.Error("bus event missing utilization")
			}
		}
	}
	if !sawMigrated {
		t.Error("migration annotation lost")
	}
	if !sawBus {
		t.Error("bus lane missing")
	}
}

func TestTextColumnCap(t *testing.T) {
	tl := &Timeline{}
	// 1000 quanta would be 1000 columns; the renderer caps at 200.
	for i := 0; i < 1000; i++ {
		tl.Record(Slice{CPU: 0, Start: units.Time(i) * 1000, Duration: 1000, Label: "A#1/0"})
	}
	out := tl.Text()
	lines := strings.Split(out, "\n")
	if len(lines) < 2 {
		t.Fatal("no lanes")
	}
	if cols := strings.Count(lines[1], "A"); cols > 250 {
		t.Errorf("renderer produced %d columns, want capped", cols)
	}
}
