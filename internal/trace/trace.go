// Package trace records scheduling timelines: which thread occupied
// which processor during every quantum, with bus statistics attached.
// Timelines render as text (one lane per processor) or export in the
// Chrome trace-event JSON format, which chrome://tracing and Perfetto
// load directly — handy for eyeballing what a policy actually did.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"busaware/internal/timeline"
	"busaware/internal/units"
)

// Slice is one thread's occupancy of one CPU for one interval.
type Slice struct {
	CPU      int
	Start    units.Time
	Duration units.Time
	// Label identifies the occupant, e.g. "CG#1/0".
	Label string
	// Speed is the thread's mean progress fraction during the slice.
	Speed float64
	// Migrated marks slices that began with a migration.
	Migrated bool
}

// Timeline accumulates slices. The zero value is ready to use.
type Timeline struct {
	NumCPUs int
	slices  []Slice
	// bus holds one machine-wide sample per recorded quantum — the
	// same sample the simulator's timeline collector folds.
	bus []timeline.Sample
}

// Record appends one slice.
func (t *Timeline) Record(s Slice) {
	t.slices = append(t.slices, s)
	if s.CPU >= t.NumCPUs {
		t.NumCPUs = s.CPU + 1
	}
}

// RecordQuanta appends n consecutive identical quanta, the k-th
// starting at s.StartUsec + k*s.DurUsec. Each quantum records one slice
// per occupant, in order, with Start and Duration set to the quantum's,
// then its bus-lane sample.
func (t *Timeline) RecordQuanta(s timeline.Sample, occupants []Slice, n int) {
	for ; n > 0; n-- {
		for _, o := range occupants {
			o.Start, o.Duration = units.Time(s.StartUsec), units.Time(s.DurUsec)
			t.Record(o)
		}
		t.bus = append(t.bus, s)
		s.StartUsec += s.DurUsec
	}
}

// Len returns the number of recorded slices.
func (t *Timeline) Len() int { return len(t.slices) }

// Span returns the earliest start and latest end across all slices.
func (t *Timeline) Span() (start, end units.Time) {
	if len(t.slices) == 0 {
		return 0, 0
	}
	start = t.slices[0].Start
	for _, s := range t.slices {
		if s.Start < start {
			start = s.Start
		}
		if e := s.Start + s.Duration; e > end {
			end = e
		}
	}
	return start, end
}

// Text renders an ASCII timeline: one lane per CPU, one column per
// quantum (the most common slice duration). Long labels are
// abbreviated to their first letters plus instance digit.
func (t *Timeline) Text() string {
	if len(t.slices) == 0 {
		return "(empty timeline)\n"
	}
	start, end := t.Span()
	// Column width = the smallest slice duration (quantum).
	col := t.slices[0].Duration
	for _, s := range t.slices {
		if s.Duration < col && s.Duration > 0 {
			col = s.Duration
		}
	}
	if col <= 0 {
		return "(degenerate timeline)\n"
	}
	ncols := int((end - start + col - 1) / col)
	if ncols > 200 {
		ncols = 200 // keep terminals usable
	}
	lanes := make([][]string, t.NumCPUs)
	for i := range lanes {
		lanes[i] = make([]string, ncols)
		for j := range lanes[i] {
			lanes[i][j] = "...."
		}
	}
	for _, s := range t.slices {
		c0 := int((s.Start - start) / col)
		span := int((s.Duration + col - 1) / col)
		for j := c0; j < c0+span && j < ncols; j++ {
			lanes[s.CPU][j] = abbrev(s.Label)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline %s..%s, column = %s\n", start, end, col)
	for cpu, lane := range lanes {
		fmt.Fprintf(&sb, "cpu%d ", cpu)
		sb.WriteString(strings.Join(lane, " "))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// abbrev shortens "Radiosity#1/0" to "Ra10"-style 4-char cells.
func abbrev(label string) string {
	name := label
	inst, thread := "", ""
	if i := strings.IndexByte(label, '#'); i >= 0 {
		name = label[:i]
		rest := label[i+1:]
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			inst, thread = rest[:j], rest[j+1:]
		} else {
			inst = rest
		}
	}
	head := name
	if len(head) > 2 {
		head = head[:2]
	}
	cell := head + inst + thread
	if len(cell) > 4 {
		cell = cell[:4]
	}
	for len(cell) < 4 {
		cell += " "
	}
	return cell
}

// chromeEvent is one Chrome trace-event ("X" = complete event).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`  // microseconds
	Dur  int64             `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the timeline in the Chrome trace-event JSON
// array format (load in chrome://tracing or Perfetto). Each CPU is a
// thread lane of process 1; quantum stats go to a counter-like lane.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0, len(t.slices)+len(t.bus))
	for _, s := range t.slices {
		args := map[string]string{"speed": fmt.Sprintf("%.3f", s.Speed)}
		if s.Migrated {
			args["migrated"] = "true"
		}
		events = append(events, chromeEvent{
			Name: s.Label, Cat: "cpu", Ph: "X",
			TS: int64(s.Start), Dur: int64(s.Duration),
			PID: 1, TID: s.CPU + 1, Args: args,
		})
	}
	for _, q := range t.bus {
		events = append(events, chromeEvent{
			Name: "bus", Cat: "bus", Ph: "X",
			TS: q.StartUsec, Dur: q.DurUsec,
			PID: 1, TID: 100,
			Args: map[string]string{
				"utilization": fmt.Sprintf("%.3f", q.Utilization),
				"served":      fmt.Sprintf("%.2f", q.Served),
			},
		})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
