// Package report renders experiment results as aligned text tables,
// CSV, and ASCII bar charts — the textual equivalents of the paper's
// figures, suitable for terminals and regression diffs.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; extra cells are dropped, missing ones padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each argument is
// formatted with %v unless it is a float64, which gets two decimals.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.2f", v))
		case string:
			row = append(row, v)
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.WriteTo(&sb)
	return sb.String()
}

// CSV renders the table as comma-separated values with a header row.
// Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeCells := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeCells(t.Columns)
	for _, row := range t.rows {
		writeCells(row)
	}
	return sb.String()
}

// BarChart renders labelled horizontal bars, the ASCII analogue of the
// paper's figure panels. Negative values extend left of the axis.
type BarChart struct {
	Title string
	Unit  string
	// Width is the maximum bar width in characters (default 40).
	Width  int
	labels []string
	values []float64
}

// NewBarChart creates an empty chart.
func NewBarChart(title, unit string) *BarChart {
	return &BarChart{Title: title, Unit: unit, Width: 40}
}

// Add appends one bar.
func (b *BarChart) Add(label string, value float64) {
	b.labels = append(b.labels, label)
	b.values = append(b.values, value)
}

// String renders the chart.
func (b *BarChart) String() string {
	var sb strings.Builder
	if b.Title != "" {
		sb.WriteString(b.Title)
		sb.WriteByte('\n')
	}
	if len(b.values) == 0 {
		return sb.String()
	}
	maxAbs := 0.0
	labelW := 0
	for i, v := range b.values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
		if len(b.labels[i]) > labelW {
			labelW = len(b.labels[i])
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	width := b.Width
	if width <= 0 {
		width = 40
	}
	anyNeg := false
	for _, v := range b.values {
		if v < 0 {
			anyNeg = true
			break
		}
	}
	for i, v := range b.values {
		bar := int(math.Round(math.Abs(v) / maxAbs * float64(width)))
		pad := strings.Repeat(" ", labelW-len(b.labels[i]))
		if anyNeg {
			if v < 0 {
				sb.WriteString(fmt.Sprintf("%s%s %*s|%s %8.2f %s\n",
					b.labels[i], pad, width, strings.Repeat("#", bar), strings.Repeat(" ", width), v, b.Unit))
			} else {
				sb.WriteString(fmt.Sprintf("%s%s %*s|%-*s %8.2f %s\n",
					b.labels[i], pad, width, "", width, strings.Repeat("#", bar), v, b.Unit))
			}
		} else {
			sb.WriteString(fmt.Sprintf("%s%s %-*s %8.2f %s\n",
				b.labels[i], pad, width, strings.Repeat("#", bar), v, b.Unit))
		}
	}
	return sb.String()
}
