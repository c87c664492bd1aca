package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"busaware/internal/digest"
)

// The sweep endpoint is the batch face of the API: a paper-scale
// figure sweep is a large set of independent deterministic cells, and
// submitting them one HTTP round trip at a time wastes both the
// client's closed loop and the server's admission queue. POST
// /v1/sweep accepts up to MaxSweepCells cells in one body and streams
// one NDJSON line per cell as it completes — out of order, each line
// tagged with the cell's index in the request.
//
// Execution stays bounded by the same runner.Pool as /v1/simulate: the
// sweep self-throttles, keeping at most the pool's queue in flight and
// waiting for its own completions before submitting more, so a big
// batch cannot starve interactive requests of more than the queue.
// Each cell is individually cacheable under the same exact key — cells
// already resident in any tier are answered without touching the pool,
// and duplicate cells within one sweep are coalesced onto a single
// computation (the extras report as hits).

// MaxSweepCells bounds one sweep request. 4096 covers every figure
// grid in the paper times policies and seeds with room to spare.
const MaxSweepCells = 4096

// MaxSweepBodyBytes caps /v1/sweep request bodies: cells are short
// JSON objects, so even MaxSweepCells of them fit comfortably in 8 MiB.
const MaxSweepBodyBytes = 8 << 20

// SweepRequest is the POST /v1/sweep body: a batch of independent
// cells, each in exactly the /v1/simulate request schema (identical
// canonicalization, identical cache keys).
type SweepRequest struct {
	Cells []Request `json:"cells"`
}

// SweepCellResult is one line of the application/x-ndjson response
// stream. Lines arrive in completion order; Index ties a line back to
// its cell in the request. For Status 200 the Response field holds the
// exact /v1/simulate body bytes for that cell (sans trailing newline),
// so byte-identity checks work across both endpoints. Digest is the
// line's integrity digest over (status, index, response) — folding the
// coordinates in means a corruption that remaps a line's digits is
// caught, not just one that garbles its payload.
type SweepCellResult struct {
	Index    int             `json:"index"`
	Status   int             `json:"status"`
	Cache    string          `json:"cache,omitempty"`
	Error    string          `json:"error,omitempty"`
	Digest   string          `json:"digest,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
}

// DecodeSweep strictly decodes and validates one /v1/sweep body, for
// this server and for the gateway in front of it.
func DecodeSweep(r io.Reader) (SweepRequest, error) {
	var req SweepRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %v", err)
	}
	if len(req.Cells) == 0 {
		return req, errors.New("empty sweep")
	}
	if len(req.Cells) > MaxSweepCells {
		return req, fmt.Errorf("sweep of %d cells exceeds the %d-cell limit", len(req.Cells), MaxSweepCells)
	}
	return req, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.error(w, started, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := DecodeSweep(http.MaxBytesReader(w, r.Body, MaxSweepBodyBytes))
	if err != nil {
		s.error(w, started, http.StatusBadRequest, err.Error())
		return
	}
	deadline, ok := s.admit(w, r, started)
	if !ok {
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(line SweepCellResult) {
		line.Digest = digest.SumLine(line.Status, line.Index, line.Response)
		b, err := json.Marshal(line)
		if err != nil {
			return
		}
		w.Write(append(b, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
		s.metrics.observeSweepCell(line)
	}
	answer := func(idx int, body []byte, cacheState string) {
		emit(SweepCellResult{Index: idx, Status: http.StatusOK, Cache: cacheState,
			Response: json.RawMessage(bytes.TrimSpace(body))})
	}

	// done is buffered for every possible computation so forwarders
	// never block on it — if the client disconnects mid-sweep the
	// handler returns without draining, and forwarders still complete
	// (they write through every tier before delivering, so no finished
	// cell is ever wasted). pending maps each computing key to every
	// cell index coalesced onto it.
	done := make(chan computed, len(req.Cells))
	pending := make(map[string][]int, len(req.Cells))
	inflight := 0
	finish := func(d computed) {
		inflight--
		indices := pending[d.c.Key]
		delete(pending, d.c.Key)
		for i, idx := range indices {
			switch {
			case d.err != nil:
				emit(SweepCellResult{Index: idx, Status: d.status(), Error: d.err.Error()})
			case i == 0:
				answer(idx, d.body, "miss")
			default:
				answer(idx, d.body, "hit") // coalesced duplicate, served from the shared computation
			}
		}
	}

	ctx := r.Context()
cells:
	for idx := range req.Cells {
		c, err := canon(req.Cells[idx])
		if err != nil {
			emit(SweepCellResult{Index: idx, Status: http.StatusBadRequest, Error: err.Error()})
			continue
		}
		if indices, ok := pending[c.Key]; ok {
			pending[c.Key] = append(indices, idx)
			continue
		}
		if body, cacheState, ok := s.lookup(c.Key); ok {
			answer(idx, body, cacheState)
			continue
		}
		for !s.compute(c, deadline, done) {
			// Queue full. Prefer draining our own completions — each one
			// both frees pool capacity and gets its line on the wire
			// early. With nothing of ours in flight the pool is saturated
			// by other requests; wait out a fraction of the Retry-After
			// hint and offer again rather than shedding mid-stream.
			var wait <-chan time.Time
			if inflight == 0 {
				wait = time.After(s.cfg.RetryAfter / 4)
			}
			select {
			case d := <-done:
				finish(d)
			case <-wait:
			case <-ctx.Done():
				break cells
			}
		}
		pending[c.Key] = []int{idx}
		inflight++
	}

	for inflight > 0 {
		select {
		case d := <-done:
			finish(d)
		case <-ctx.Done():
			// Client gone: stop writing. Forwarders have already (or
			// will) write every in-flight result through the tiers.
			inflight = 0
		}
	}
	s.metrics.observe(http.StatusOK, time.Since(started))
}
