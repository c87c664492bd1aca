package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"busaware/internal/timeline"
)

// The timeline feed is the server's live observability plane: every
// simulation cell records per-quantum telemetry into its own bounded
// collector, and each window the collector seals — mid-run, not at
// completion — is published here and streamed to GET /v1/timeline
// subscribers as one NDJSON line. A bus-saturation episode inside a
// long sweep is visible while the sweep is still running, which is the
// property the CI timeline-smoke job pins.
//
//	GET /v1/timeline             — NDJSON stream of TimelineEvent lines
//	GET /v1/timeline?backlog=N   — replay up to N retained events first
//	GET /v1/timeline?max=N       — close the stream after N lines
//	GET /v1/timeline?summary=1   — one JSON TimelineSummary, no stream
//
// Slow subscribers never stall the simulators: events are delivered
// over buffered channels and dropped (counted) when a subscriber's
// buffer is full.

// TimelineEvent is one NDJSON line of GET /v1/timeline: a sealed
// window stamped with the run it came from and the wall-clock arrival.
type TimelineEvent struct {
	// Seq numbers events server-wide in publication order.
	Seq int64 `json:"seq"`
	// WallMs is the publication wall clock (Unix milliseconds) — live
	// feed metadata, deliberately absent from cacheable responses.
	WallMs int64 `json:"wall_ms"`
	// Key is the canonical request key of the run that sealed the
	// window; Backend is stamped by the gateway when merging streams.
	Key     string `json:"key"`
	Backend string `json:"backend,omitempty"`
	// Window is the sealed telemetry window (internal/timeline schema).
	Window timeline.Window `json:"window"`
}

// TimelineSummary is the ?summary=1 body: the order-independent merge
// of every window the server has published, plus feed accounting. The
// gateway folds these across backends with timeline.Merge.
type TimelineSummary struct {
	Windows             int64           `json:"windows"`
	Dropped             int64           `json:"dropped"`
	Subscribers         int             `json:"subscribers"`
	QuantaPerWindow     int             `json:"quanta_per_window"`
	SaturationThreshold float64         `json:"saturation_threshold"`
	Summary             timeline.Window `json:"summary"`
}

// feedBacklog is how many recent events the feed retains for
// ?backlog replay; subChanBuf is each subscriber's delivery buffer.
const (
	feedBacklog = 256
	subChanBuf  = 64
)

// timelineFeed fans sealed windows out to streaming subscribers and
// keeps the running merge.
type timelineFeed struct {
	mu      sync.Mutex
	seq     int64
	backlog []TimelineEvent // ring, preallocated
	head, n int
	subs    map[int64]chan TimelineEvent
	nextSub int64
	summary timeline.Window
	dropped int64
}

func newTimelineFeed() *timelineFeed {
	return &timelineFeed{
		backlog: make([]TimelineEvent, feedBacklog),
		subs:    make(map[int64]chan TimelineEvent),
	}
}

func (f *timelineFeed) lock()   { f.mu.Lock() }
func (f *timelineFeed) unlock() { f.mu.Unlock() }

// publish stamps and fans one sealed window out. Called from
// simulation worker goroutines via Collector.OnSeal.
func (f *timelineFeed) publish(key string, w timeline.Window) {
	f.lock()
	ev := TimelineEvent{
		Seq:    f.seq,
		WallMs: time.Now().UnixMilli(),
		Key:    key,
		Window: w,
	}
	f.seq++
	if f.n == len(f.backlog) {
		f.head = (f.head + 1) % len(f.backlog)
		f.n--
	}
	f.backlog[(f.head+f.n)%len(f.backlog)] = ev
	f.n++
	f.summary = timeline.Merge(f.summary, w)
	for _, ch := range f.subs {
		select {
		case ch <- ev:
		default:
			f.dropped++
		}
	}
	f.unlock()
}

// subscribe registers a streaming reader, replaying up to backlog
// retained events first.
func (f *timelineFeed) subscribe(backlog int) (int64, <-chan TimelineEvent, []TimelineEvent) {
	f.lock()
	defer f.unlock()
	id := f.nextSub
	f.nextSub++
	ch := make(chan TimelineEvent, subChanBuf)
	f.subs[id] = ch
	var replay []TimelineEvent
	if backlog > 0 {
		start := 0
		if f.n > backlog {
			start = f.n - backlog
		}
		for i := start; i < f.n; i++ {
			replay = append(replay, f.backlog[(f.head+i)%len(f.backlog)])
		}
	}
	return id, ch, replay
}

func (f *timelineFeed) unsubscribe(id int64) {
	f.lock()
	defer f.unlock()
	delete(f.subs, id)
}

// snapshot returns the merged window plus accounting.
func (f *timelineFeed) snapshot() (timeline.Window, int64, int64, int) {
	f.lock()
	defer f.unlock()
	return f.summary, f.seq, f.dropped, len(f.subs)
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	if q.Get("summary") != "" {
		sum, windows, dropped, subs := s.feed.snapshot()
		WriteJSON(w, http.StatusOK, TimelineSummary{
			Windows:             windows,
			Dropped:             dropped,
			Subscribers:         subs,
			QuantaPerWindow:     s.timelineQuanta(),
			SaturationThreshold: timeline.SaturationThreshold,
			Summary:             sum,
		})
		return
	}

	backlog, err := CountParam(q.Get("backlog"), feedBacklog)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad backlog: %v", err))
		return
	}
	max, err := CountParam(q.Get("max"), 0) // 0 = unbounded
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad max: %v", err))
		return
	}

	id, ch, replay := s.feed.subscribe(backlog)
	defer s.feed.unsubscribe(id)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out now: a subscriber opening the stream
		// before any window seals must still see the connection
		// established, not block until the first event.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	sent := 0
	emit := func(ev TimelineEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		sent++
		return max == 0 || sent < max
	}
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev := <-ch:
			if !emit(ev) {
				return
			}
		}
	}
}

// CountParam parses a non-negative integer query parameter, empty
// selecting def; the gateway parses /v1/timeline's with it too.
func CountParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("want a non-negative integer, got %q", s)
	}
	return v, nil
}

// timelineQuanta is the per-run window span the server configures.
func (s *Server) timelineQuanta() int {
	if s.cfg.TimelineQuanta > 0 {
		return s.cfg.TimelineQuanta
	}
	return timeline.DefaultQuantaPerWindow
}

// timelineWindows bounds each run's retained ring. Runs outliving it
// fold evicted windows into their summary, so totals stay exact.
func (s *Server) timelineWindows() int {
	if s.cfg.TimelineWindows > 0 {
		return s.cfg.TimelineWindows
	}
	return 256
}

// newRunCollector builds the per-run collector whose sealed windows
// feed the live stream tagged with the run's canonical key.
func (s *Server) newRunCollector(key string) *timeline.Collector {
	return timeline.MustNew(timeline.Config{
		QuantaPerWindow: s.timelineQuanta(),
		Capacity:        s.timelineWindows(),
		OnSeal:          func(w timeline.Window) { s.feed.publish(key, w) },
	})
}
