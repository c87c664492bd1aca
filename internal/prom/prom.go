// Package prom writes the Prometheus text exposition format for both
// daemons' /metrics endpoints. It owns the format: family headers,
// label quoting, sample values, label sets written in sorted order, the
// cumulative histogram and the content type. A daemon's metrics file
// keeps only what it counts and where each live value is read. The
// repository is dependency-free by charter, so this is a small writer
// on the standard library, not a client library.
package prom

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ContentType is the media type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Writer renders metric families. Write errors are not reported: a
// scrape that fails mid-body is the scraper's to retry.
type Writer struct{ w io.Writer }

// NewWriter returns a Writer that renders to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w} }

// Family writes name's # HELP and # TYPE lines (typ is "counter",
// "gauge" or "histogram") and returns the writer for its samples.
func (p *Writer) Family(name, typ, help string) Family {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return Family{p.w, name}
}

// Counter writes a counter family with one unlabelled sample.
func (p *Writer) Counter(name, help string, v float64) { p.Family(name, "counter", help).Sample(v) }

// Gauge writes a gauge family with one unlabelled sample.
func (p *Writer) Gauge(name, help string, v float64) { p.Family(name, "gauge", help).Sample(v) }

// Family writes one family's samples, which must follow its header
// before the next family opens.
type Family struct {
	w    io.Writer
	name string
}

// labelEscaper escapes a label value as the format requires.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Sample writes one series of the family; labels alternate label
// names and values.
func (f Family) Sample(v float64, labels ...string) {
	var b strings.Builder
	b.WriteString(f.name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(&b, `%s%s="%s"`, sep, labels[i], labelEscaper.Replace(labels[i+1]))
	}
	if len(labels) > 1 {
		b.WriteByte('}')
	}
	fmt.Fprintf(f.w, "%s %s\n", b.String(), formatValue(v))
}

// formatValue renders a sample value: integral values in full, so a
// large counter never reads as 1.234567e+06, and the rest in their
// shortest exact form. Integers beyond 2^53, which a float64 cannot
// hold exactly, take the shortest form too.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counts is a counter family with one label, safe for concurrent use.
// The zero value is ready; series appear as their keys are counted and
// are written in ascending key order.
type Counts[K cmp.Ordered] struct {
	mu sync.Mutex
	m  map[K]uint64
}

// Inc adds one to k's series.
func (c *Counts[K]) Inc(k K) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]uint64)
	}
	c.m[k]++
	c.mu.Unlock()
}

// Write renders c as the counter family name, one series per key.
func (c *Counts[K]) Write(p *Writer, name, help, label string) {
	c.mu.Lock()
	keys := make([]K, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = c.m[k]
	}
	c.mu.Unlock()
	f := p.Family(name, "counter", help)
	for i, k := range keys {
		f.Sample(float64(vals[i]), label, fmt.Sprint(k))
	}
}

// Histogram is a cumulative histogram over fixed upper bounds, safe for
// concurrent use.
type Histogram struct {
	bounds []float64 // ascending, +Inf last
	mu     sync.Mutex
	counts []uint64 // per bucket, not yet cumulative
	sum    float64
}

// NewHistogram builds a histogram over ascending upper bounds; the
// +Inf bucket is implied.
func NewHistogram(bounds ...float64) *Histogram {
	bounds = append(slices.Clone(bounds), math.Inf(1))
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

// Observe records one value in the first bucket whose bound is >= v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

// Write renders h as the histogram family name: cumulative _bucket
// series, then _sum and _count.
func (h *Histogram) Write(p *Writer, name, help string) {
	h.mu.Lock()
	counts, sum := slices.Clone(h.counts), h.sum
	h.mu.Unlock()
	p.Family(name, "histogram", help)
	var cum uint64
	for i, n := range counts {
		cum += n
		Family{p.w, name + "_bucket"}.Sample(float64(cum), "le", formatValue(h.bounds[i]))
	}
	Family{p.w, name + "_sum"}.Sample(sum)
	Family{p.w, name + "_count"}.Sample(float64(cum))
}
