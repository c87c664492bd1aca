package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"busaware/internal/digest"
	"busaware/internal/server"
)

// Sweep scatter-gather: a batch of cells is one ledger (ledger.go).
// Its dispatches carry sub-sweeps — one per owning backend, hedge and
// failover — and the backends' NDJSON streams are merged: lines are
// forwarded to the client as they arrive, each cell's index remapped
// from its sub-sweep position back to its position in the client's
// batch, the serving backend recorded on the line, and the integrity
// digest re-stamped for the client's coordinates. A backend line is
// trusted only once its digest verifies against the sub-sweep
// coordinates; a corrupt line is dropped and its cell re-earned
// elsewhere, so torn bytes never reach the client.

// SweepLine is one NDJSON line of the gateway's merged sweep stream:
// the backend's line plus which backend served it (the shard-affinity
// observability hook smpload and the experiments use).
type SweepLine struct {
	server.SweepCellResult
	Backend string `json:"backend,omitempty"`
}

func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		g.reject(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := server.DecodeSweep(http.MaxBytesReader(w, r.Body, server.MaxSweepBodyBytes))
	if err != nil {
		g.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline, err := server.ParseDeadline(r.Header)
	if err != nil {
		g.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s := &sweepCall{g: g, w: w, cells: req.Cells, deadline: deadline}
	s.flusher, _ = w.(http.Flusher)
	// Cells the gateway can prove invalid become 400 lines without a
	// backend round trip.
	keys := make([]string, len(req.Cells))
	for i, cell := range req.Cells {
		key, err := server.CanonicalKey(cell)
		if err != nil {
			s.emit(server.SweepCellResult{Index: i, Status: http.StatusBadRequest, Error: err.Error()}, "")
			continue
		}
		keys[i] = key
	}
	g.serve(r, s, keys)
	g.metrics.observe(http.StatusOK)
}

// sweepCall is /v1/sweep's transport and renderer.
type sweepCall struct {
	g        *Gateway
	w        http.ResponseWriter
	flusher  http.Flusher
	cells    []server.Request
	deadline time.Time
}

// send posts dispatch d's cells as one sub-sweep and hands over its
// verified lines; a line that does not parse, names no cell of the
// sub-sweep or fails its digest is dropped. A retryable whole-sweep
// refusal (injected or real 5xx) fails the attempt so the cells fail
// over; a definitive refusal answers every cell with its status. An
// idle watchdog hangs up a stream that sends no line for a full
// AttemptTimeout, so a blackholed backend fails over instead of
// pinning the sweep.
func (s *sweepCall) send(ctx context.Context, l *ledger, d *dispatch) error {
	cells := make([]server.Request, len(d.cells))
	for k, i := range d.cells {
		cells[k] = s.cells[i]
	}
	body, err := json.Marshal(server.SweepRequest{Cells: cells})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var idle *time.Timer
	at := s.g.cfg.AttemptTimeout
	if at > 0 {
		idle = time.AfterFunc(at, cancel)
		defer idle.Stop()
	}
	resp, err := s.g.post(ctx, d.b, "/v1/sweep", body, s.deadline)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("backend sweep status %d", resp.StatusCode)
		if retryableStatus(resp.StatusCode) {
			return err
		}
		for _, i := range d.cells {
			l.answer(d, i, sweepAnswer(d.b, server.SweepCellResult{
				Index: i, Status: resp.StatusCode, Error: err.Error()}))
		}
		return nil
	}
	var bad error
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), server.MaxSweepBodyBytes)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if idle != nil {
			idle.Reset(at)
		}
		var line server.SweepCellResult
		if json.Unmarshal(raw, &line) != nil || line.Index < 0 || line.Index >= len(d.cells) ||
			!digest.VerifyLine(line.Digest, line.Status, line.Index, line.Response) {
			// Corrupt bytes survived HTTP framing: drop the line, let the
			// cell be re-earned, and fail the path that served it.
			s.g.metrics.digestMismatches.Add(1)
			bad = fmt.Errorf("%s: %w", d.b.addr, errDigestMismatch)
			continue
		}
		line.Index = d.cells[line.Index]
		l.answer(d, line.Index, sweepAnswer(d.b, line))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return bad
}

// sweepAnswer wraps one backend line, already in the client's
// coordinates, as an answer.
func sweepAnswer(b *backend, line server.SweepCellResult) *answer {
	line.Digest = digest.SumLine(line.Status, line.Index, line.Response)
	return &answer{status: line.Status, sum: line.Digest, b: b, line: line}
}

// write forwards the winning line.
func (s *sweepCall) write(_ int, a *answer) {
	s.emit(a.line, a.b.addr)
}

// fail writes an error line for a cell no backend answered.
func (s *sweepCall) fail(i, status int, cause error) {
	msg := "backend stream failed"
	switch {
	case status == http.StatusServiceUnavailable:
		msg = "retry budget exhausted"
	case cause != nil:
		msg = cause.Error()
	}
	s.emit(server.SweepCellResult{Index: i, Status: status, Error: msg}, "")
}

// emit writes one line to the client, stamped with its digest.
func (s *sweepCall) emit(line server.SweepCellResult, backend string) {
	if line.Digest == "" {
		line.Digest = digest.SumLine(line.Status, line.Index, line.Response)
	}
	b, err := json.Marshal(SweepLine{SweepCellResult: line, Backend: backend})
	if err != nil {
		return
	}
	s.w.Write(append(b, '\n'))
	if s.flusher != nil {
		s.flusher.Flush()
	}
	s.g.metrics.sweepCells.Add(1)
}
