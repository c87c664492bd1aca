package prom_test

import (
	"io"
	"strings"
	"sync"
	"testing"

	"busaware/internal/prom"
)

// TestSampleValues: integral samples print in full, the rest in their
// shortest exact form.
func TestSampleValues(t *testing.T) {
	for v, want := range map[float64]string{
		12345678:   "12345678", // 'g' would print 1.2345678e+07
		1e6:        "1000000",
		0:          "0",
		10:         "10",
		0.4:        "0.4",
		0.001:      "0.001",
		2.5:        "2.5",
		1.0 / 3:    "0.3333333333333333",
		1234567.25: "1.23456725e+06",
		1 << 53:    "9.007199254740992e+15",
		-3:         "-3",
	} {
		var b strings.Builder
		prom.NewWriter(&b).Gauge("v", "V.", v)
		if got := strings.TrimPrefix(b.String(), "# HELP v V.\n# TYPE v gauge\n"); got != "v "+want+"\n" {
			t.Errorf("value %v renders %q, want %q", v, got, want)
		}
	}
}

func TestWriter(t *testing.T) {
	var b strings.Builder
	p := prom.NewWriter(&b)

	var codes prom.Counts[int]
	for _, c := range []int{504, 200, 99, 200} {
		codes.Inc(c)
	}
	codes.Write(p, "req_total", "Requests.", "code")

	h := prom.NewHistogram(0.1, 1)
	for _, v := range []float64{0.05, 0.1, 0.5, 7} {
		h.Observe(v)
	}
	h.Write(p, "lat_seconds", "Latency.")

	p.Gauge("ratio", "A ratio.", 0.4)
	p.Counter("bytes_total", "Bytes.", 12345678)
	f := p.Family("labelled", "gauge", "Quoted label values.")
	f.Sample(1, "a", `x"y\z`, "b", "line\nbreak")

	const want = `# HELP req_total Requests.
# TYPE req_total counter
req_total{code="99"} 1
req_total{code="200"} 2
req_total{code="504"} 1
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 2
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 7.65
lat_seconds_count 4
# HELP ratio A ratio.
# TYPE ratio gauge
ratio 0.4
# HELP bytes_total Bytes.
# TYPE bytes_total counter
bytes_total 12345678
# HELP labelled Quoted label values.
# TYPE labelled gauge
labelled{a="x\"y\\z",b="line\nbreak"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if err := checkExposition(b.String()); err != nil {
		t.Error(err)
	}
}

// TestConcurrentUse: counts and observations from many goroutines,
// scraped while they arrive, all land.
func TestConcurrentUse(t *testing.T) {
	var codes prom.Counts[int]
	h := prom.NewHistogram(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				codes.Inc(200 + g%2)
				h.Observe(float64(i % 3))
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		codes.Write(prom.NewWriter(io.Discard), "c", "C.", "code")
		h.Write(prom.NewWriter(io.Discard), "h", "H.")
	}
	wg.Wait()
	var b strings.Builder
	codes.Write(prom.NewWriter(&b), "c", "C.", "code")
	h.Write(prom.NewWriter(&b), "h", "H.")
	for _, want := range []string{`c{code="200"} 2000`, `c{code="201"} 2000`, `h_bucket{le="1"} 2672`, `h_sum 3992`, `h_count 4000`} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("missing %q in\n%s", want, b.String())
		}
	}
}
