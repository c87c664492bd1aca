package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer: the load client around its request, a middleware
// around the gateway and each server handler, and a RoundTripper around
// the gateway's backend client. The client stamps traceHeader with the
// operation number; the gateway middleware moves it into the request
// context, which the gateway passes to its backend requests; the
// RoundTripper stamps "op/attempt" on each backend request so a backend
// span pairs with the round trip that caused it.
const traceHeader = "X-Bench-Trace"

// Layer names of the recorded spans.
const (
	layerClient      = "client"
	layerGateway     = "gateway"
	layerRoundTrip   = "gw_rt"
	layerServer      = "server"
	layerSweep       = "sweep"
	layerExperiments = "experiments"
)

type span struct {
	layer string
	op    int64 // operation number, shared by every span of one operation
	try   int64 // pairs a gateway round trip with its backend span; 0 elsewhere
	class string
	start time.Duration
	end   time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	tries atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type traceKey struct{}

// handler wraps h so requests carrying traceHeader record a span of
// layer, classed by the response's X-Cache header or else the path.
// A nil tracer returns h itself.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opStr, tryStr, _ := strings.Cut(r.Header.Get(traceHeader), "/")
		op, err := strconv.ParseInt(opStr, 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		try, _ := strconv.ParseInt(tryStr, 10, 64)
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, op)))
		class := w.Header().Get("X-Cache")
		if class == "" {
			class = r.URL.Path
		}
		t.record(span{layer, op, try, class, start, t.now()})
	})
}

// transport wraps base so that backend requests made on behalf of a
// traced operation carry its number and record a round-trip span that
// ends when the gateway closes the response body.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripper{t, base}
}

type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	op, ok := req.Context().Value(traceKey{}).(int64)
	if !ok {
		return rt.base.RoundTrip(req)
	}
	try := rt.t.tries.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, fmt.Sprintf("%d/%d", op, try))
	start := rt.t.now()
	end := func() { rt.t.record(span{layerRoundTrip, op, try, req.URL.Path, start, rt.t.now()}) }
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// servingLedger attributes each traced operation's client-observed time
// to the hops it crossed, along its critical path:
//
//	net.client_gw    client span − gateway handler span
//	gateway.self     gateway span − union of its backend round trips
//	net.gw_backend   last-ending round trip − its backend handler span
//	server           that backend handler span
//
// and returns per-operation means; unattributed_frac is what those
// means leave of the client mean (time in parallel round trips off the
// critical path, or spans that were never recorded). Backend spans are
// also averaged per cache class (server.hit_t1_us and so on).
func (t *tracer) servingLedger() map[string]float64 {
	type opSpans struct {
		client, gateway *span
		trips           []span
		servers         map[int64]span
	}
	ops := map[int64]*opSpans{}
	classSum := map[string]time.Duration{}
	classN := map[string]int{}
	t.mu.Lock()
	for i := range t.spans {
		s := t.spans[i]
		o := ops[s.op]
		if o == nil {
			o = &opSpans{servers: map[int64]span{}}
			ops[s.op] = o
		}
		switch s.layer {
		case layerClient:
			o.client = &s
		case layerGateway:
			o.gateway = &s
		case layerRoundTrip:
			o.trips = append(o.trips, s)
		case layerServer:
			o.servers[s.try] = s
			classSum[s.class] += s.dur()
			classN[s.class]++
		}
	}
	t.mu.Unlock()

	var n, trips int
	var e2e, clientGW, gwSelf, gwBackend, server time.Duration
	for _, o := range ops {
		if o.client == nil || o.gateway == nil {
			continue
		}
		n++
		trips += len(o.trips)
		e2e += o.client.dur()
		clientGW += o.client.dur() - o.gateway.dur()
		gwSelf += o.gateway.dur() - union(o.trips)
		if len(o.trips) == 0 {
			continue
		}
		crit := o.trips[0]
		for _, r := range o.trips[1:] {
			if r.end > crit.end {
				crit = r
			}
		}
		if s, ok := o.servers[crit.try]; ok {
			gwBackend += crit.dur() - s.dur()
			server += s.dur()
		}
	}
	m := map[string]float64{}
	if n == 0 {
		return m
	}
	per := func(d time.Duration) float64 { return us(d) / float64(n) }
	m["net.client_gw_us"] = per(clientGW)
	m["gateway.self_us"] = per(gwSelf)
	m["net.gw_backend_us"] = per(gwBackend)
	m["gateway.attempts_per_req"] = float64(trips) / float64(n)
	m["unattributed_frac"] = 1 - float64(clientGW+gwSelf+gwBackend+server)/float64(e2e)
	for class, name := range map[string]string{
		"hit":  "server.hit_t1_us",
		"miss": "server.miss_us",
	} {
		if classN[class] > 0 {
			m[name] = us(classSum[class]) / float64(classN[class])
		}
	}
	return m
}

// union is the length of the union of the spans' intervals.
func union(spans []span) time.Duration {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total, end time.Duration
	for i, x := range s {
		switch {
		case i == 0 || x.start >= end:
			total += x.dur()
			end = x.end
		case x.end > end:
			total += x.end - end
			end = x.end
		}
	}
	return total
}

// sweepLedger returns the per-sweep mean of each figure's span, and
// the share of the sweep mean those means leave unexplained.
func (t *tracer) sweepLedger() map[string]float64 {
	sums := map[string]time.Duration{}
	var n int
	var sweep time.Duration
	t.mu.Lock()
	for _, s := range t.spans {
		switch s.layer {
		case layerSweep:
			n++
			sweep += s.dur()
		case layerExperiments:
			sums[s.class] += s.dur()
		}
	}
	t.mu.Unlock()
	m := map[string]float64{}
	if n == 0 {
		return m
	}
	var figs time.Duration
	for name, d := range sums {
		figs += d
		m["experiments."+name+"_ms"] = float64(d) / float64(time.Millisecond) / float64(n)
	}
	m["unattributed_frac"] = 1 - float64(figs)/float64(sweep)
	return m
}

// maxTraceEvents bounds the events written to the trace file; spans
// past it still count in the summary.
const maxTraceEvents = 20000

// writeChrome writes the spans as Chrome trace-event JSON, one track
// per operation so its layers nest (open in Perfetto or
// chrome://tracing), with the run's per-layer summary under "summary".
func (t *tracer) writeChrome(path string, summary map[string]metric) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	spans := t.spans
	if len(spans) > maxTraceEvents {
		spans = spans[:maxTraceEvents]
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.layer + " " + s.class, Cat: s.layer, Ph: "X",
			TS: us(s.start), Dur: us(s.dur()), PID: 1, TID: int(s.op),
			Args: map[string]any{"try": s.try},
		})
	}
	total := len(t.spans)
	t.mu.Unlock()

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"summary":         map[string]any{"spans": total, "written": len(events), "metrics": summary},
	})
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
