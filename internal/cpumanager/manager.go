package cpumanager

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"busaware/internal/faults"
	"busaware/internal/units"
)

// The wire protocol. The paper's applications send a "connection"
// message over a standard UNIX socket; the manager answers with the
// shared-arena parameters and how often the bus transaction rate is
// expected to be updated (twice per scheduling quantum). Thread
// creation and destruction are intercepted by the run-time library and
// reported over the same connection.

// Op names accepted by the manager.
const (
	OpConnect       = "connect"
	OpDisconnect    = "disconnect"
	OpThreadCreate  = "thread_create"
	OpThreadDestroy = "thread_destroy"
)

// Request is one client message.
type Request struct {
	Op       string `json:"op"`
	Instance string `json:"instance,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Session  uint64 `json:"session,omitempty"`
}

// Response is the manager's answer.
type Response struct {
	OK             bool   `json:"ok"`
	Err            string `json:"err,omitempty"`
	Session        uint64 `json:"session,omitempty"`
	UpdatePeriodUs int64  `json:"update_period_us,omitempty"`
	QuantumUs      int64  `json:"quantum_us,omitempty"`
}

// MaxSessionThreads bounds the per-session thread count the manager
// will track. Absurd counts in a connect or thread_create request must
// yield an error response, not an unbounded signal-state allocation.
const MaxSessionThreads = 1024

// Session is the manager's state for one connected application.
type Session struct {
	ID       uint64
	Instance string
	Arena    *Arena

	mu      sync.Mutex
	threads int
	// signals holds one SignalState per application thread. The
	// manager signals thread 0, which forwards to the rest — the
	// paper's delivery chain.
	signals []*SignalState
	// lastSeen is the simulated time the manager last heard from the
	// application (registration, wire activity, or a fresh arena
	// publish). The reaper uses it to reclaim sessions whose client
	// died without disconnecting.
	lastSeen units.Time
}

// Touch records activity from the application at simulated time now.
func (s *Session) Touch(now units.Time) {
	s.mu.Lock()
	if now > s.lastSeen {
		s.lastSeen = now
	}
	s.mu.Unlock()
}

// LastSeen returns the last recorded activity time.
func (s *Session) LastSeen() units.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeen
}

// Threads returns the current thread count.
func (s *Session) Threads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.threads
}

// SignalStates returns the per-thread signal states.
func (s *Session) SignalStates() []*SignalState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*SignalState(nil), s.signals...)
}

// Blocked reports whether all application threads are currently
// blocked.
func (s *Session) Blocked() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.signals) == 0 {
		return false
	}
	for _, st := range s.signals {
		if !st.Blocked() {
			return false
		}
	}
	return true
}

func (s *Session) setThreads(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.threads = n
	for len(s.signals) < n {
		s.signals = append(s.signals, &SignalState{})
	}
	s.signals = s.signals[:n]
}

// Manager is the user-level CPU manager server.
type Manager struct {
	quantum units.Time

	mu       sync.Mutex
	sessions map[uint64]*Session
	nextID   uint64

	// SignalsSent counts block+unblock signals, for the overhead
	// experiment.
	signalsSent uint64

	// faultInj, when non-nil, injects signal-delivery faults
	// (drop/duplicate/delay); delayed holds deliveries deferred to the
	// next signalling round, and owedBlocks/owedUnblocks record the
	// compensating resends owed per thread after a duplicated signal.
	faultInj     *faults.Injector
	delayed      []func()
	owedBlocks   map[*SignalState]int
	owedUnblocks map[*SignalState]int

	// reapTimeout, when positive, lets Reap reclaim sessions not
	// heard from within the window.
	reapTimeout units.Time
}

// NewManager builds a manager with the given scheduling quantum
// (200 ms in the paper; twice the Linux quantum).
func NewManager(quantum units.Time) (*Manager, error) {
	if quantum <= 0 {
		return nil, errors.New("cpumanager: non-positive quantum")
	}
	return &Manager{
		quantum:  quantum,
		sessions: make(map[uint64]*Session),
	}, nil
}

// Quantum returns the scheduling quantum.
func (m *Manager) Quantum() units.Time { return m.quantum }

// UpdatePeriod returns the arena refresh period announced to
// applications: half the quantum, i.e. two samples per quantum.
func (m *Manager) UpdatePeriod() units.Time { return m.quantum / 2 }

// SignalsSent returns the number of signals issued so far.
func (m *Manager) SignalsSent() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.signalsSent
}

// Sessions returns the live sessions in ID order.
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.sessions))
	for id := uint64(1); id <= m.nextID; id++ {
		if s, ok := m.sessions[id]; ok {
			out = append(out, s)
		}
	}
	return out
}

// Attach resolves a session's shared arena — the in-process stand-in
// for mmap'ing the shared page the real manager exported.
func (m *Manager) Attach(sessionID uint64) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[sessionID]
	if !ok {
		return nil, fmt.Errorf("cpumanager: unknown session %d", sessionID)
	}
	return s, nil
}

// SetFaultInjector attaches a fault injector to signal delivery; nil
// (the default) delivers every signal exactly once, immediately.
func (m *Manager) SetFaultInjector(in *faults.Injector) {
	m.mu.Lock()
	m.faultInj = in
	m.mu.Unlock()
}

// SetReapTimeout enables session reaping: Reap reclaims sessions not
// heard from within d. Zero (the default) disables reaping.
func (m *Manager) SetReapTimeout(d units.Time) {
	m.mu.Lock()
	m.reapTimeout = d
	m.mu.Unlock()
}

// Reap removes sessions whose application has been silent (no wire
// activity, no fresh arena publish) longer than the reap timeout, and
// returns them. A dead client's processors are thereby reclaimed next
// quantum instead of leaking until the TCP stack notices. No-op when
// reaping is disabled.
func (m *Manager) Reap(now units.Time) []*Session {
	m.mu.Lock()
	timeout := m.reapTimeout
	if timeout <= 0 {
		m.mu.Unlock()
		return nil
	}
	var reaped []*Session
	for id, s := range m.sessions {
		last := s.LastSeen()
		if _, epoch, written := s.Arena.Read(); epoch > 0 && written > last {
			last = written
		}
		if now-last > timeout {
			delete(m.sessions, id)
			reaped = append(reaped, s)
		}
	}
	m.mu.Unlock()
	sort.Slice(reaped, func(i, j int) bool { return reaped[i].ID < reaped[j].ID })
	return reaped
}

// connect registers a new application.
func (m *Manager) connect(instance string, threads int) (*Session, error) {
	if threads < 1 {
		return nil, fmt.Errorf("cpumanager: %q connecting with %d threads", instance, threads)
	}
	if threads > MaxSessionThreads {
		return nil, fmt.Errorf("cpumanager: %q connecting with %d threads (max %d)", instance, threads, MaxSessionThreads)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	s := &Session{
		ID:       m.nextID,
		Instance: instance,
		Arena:    NewArena(m.quantum / 2),
	}
	s.setThreads(threads)
	m.sessions[s.ID] = s
	return s, nil
}

// disconnect removes a session.
func (m *Manager) disconnect(id uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[id]; !ok {
		return fmt.Errorf("cpumanager: unknown session %d", id)
	}
	delete(m.sessions, id)
	return nil
}

// Block signals a session to stop running: one signal to thread 0,
// forwarded to the rest.
func (m *Manager) Block(s *Session) { m.signal(s, true) }

// Unblock signals a session to resume.
func (m *Manager) Unblock(s *Session) { m.signal(s, false) }

// signal delivers a block or unblock signal to every thread of s.
// Without a fault injector each signal is delivered exactly once,
// immediately — the counting matches the pre-fault manager exactly.
// With one attached, individual per-thread signals may be dropped,
// delayed to the next signalling round, or duplicated. A duplicate
// models a resend: a manager unsure a signal arrived sends it again
// and, knowing it did, later resends the matching opposite signal too,
// so the count-based blocking rule converges instead of wedging on a
// permanent block/unblock surplus — the inversion tolerance the paper
// built SignalState for.
func (m *Manager) signal(s *Session, block bool) {
	m.mu.Lock()
	inj := m.faultInj
	pending := m.delayed
	m.delayed = nil
	m.mu.Unlock()

	// Deliver signals deferred from the previous round first, so a
	// delayed signal arrives at most one round late and never after a
	// newer signal for the same thread.
	for _, deliver := range pending {
		deliver()
	}

	for _, st := range s.SignalStates() {
		st := st
		switch {
		case inj.DropSignal():
			// Lost in delivery: the thread never sees it.
		case inj.DelaySignal():
			m.mu.Lock()
			m.delayed = append(m.delayed, func() { m.deliverSignal(st, block, false) })
			m.mu.Unlock()
		default:
			m.deliverSignal(st, block, inj.DuplicateSignal())
		}
	}
}

// deliverSignal delivers one signal to st, settling any compensating
// resends owed in this direction. When resend is true the signal is
// sent twice and the opposite direction owes one compensation.
func (m *Manager) deliverSignal(st *SignalState, block, resend bool) {
	m.mu.Lock()
	n := 1
	if block {
		n += m.owedBlocks[st]
		delete(m.owedBlocks, st)
		if resend {
			if m.owedUnblocks == nil {
				m.owedUnblocks = make(map[*SignalState]int)
			}
			m.owedUnblocks[st]++
			n++
		}
	} else {
		n += m.owedUnblocks[st]
		delete(m.owedUnblocks, st)
		if resend {
			if m.owedBlocks == nil {
				m.owedBlocks = make(map[*SignalState]int)
			}
			m.owedBlocks[st]++
			n++
		}
	}
	m.signalsSent += uint64(n)
	m.mu.Unlock()
	for i := 0; i < n; i++ {
		if block {
			st.Block()
		} else {
			st.Unblock()
		}
	}
}

// Serve accepts connections on l until it is closed. Each connection
// carries a stream of JSON requests. Serve returns the listener's
// close error.
func (m *Manager) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go m.handle(conn)
	}
}

func (m *Manager) handle(conn net.Conn) {
	defer conn.Close()
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	var sessionID uint64
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			if sessionID != 0 {
				// Connection dropped: treat as disconnect.
				_ = m.disconnect(sessionID)
			}
			if err != io.EOF {
				return
			}
			return
		}
		resp := m.dispatch(&sessionID, req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

func (m *Manager) dispatch(sessionID *uint64, req Request) Response {
	fail := func(err error) Response { return Response{Err: err.Error()} }
	switch req.Op {
	case OpConnect:
		if *sessionID != 0 {
			return fail(errors.New("already connected"))
		}
		s, err := m.connect(req.Instance, req.Threads)
		if err != nil {
			return fail(err)
		}
		*sessionID = s.ID
		return Response{
			OK:             true,
			Session:        s.ID,
			UpdatePeriodUs: int64(m.UpdatePeriod()),
			QuantumUs:      int64(m.quantum),
		}
	case OpDisconnect:
		id := req.Session
		if id == 0 {
			id = *sessionID
		}
		if err := m.disconnect(id); err != nil {
			return fail(err)
		}
		*sessionID = 0
		return Response{OK: true}
	case OpThreadCreate, OpThreadDestroy:
		id := req.Session
		if id == 0 {
			id = *sessionID
		}
		m.mu.Lock()
		s, ok := m.sessions[id]
		m.mu.Unlock()
		if !ok {
			return fail(fmt.Errorf("unknown session %d", id))
		}
		n := s.Threads()
		if req.Op == OpThreadCreate {
			n++
		} else {
			n--
		}
		if n < 1 {
			return fail(errors.New("thread count would drop below 1"))
		}
		if n > MaxSessionThreads {
			return fail(fmt.Errorf("thread count %d exceeds max %d", n, MaxSessionThreads))
		}
		s.setThreads(n)
		return Response{OK: true, Session: id}
	default:
		return fail(fmt.Errorf("unknown op %q", req.Op))
	}
}
