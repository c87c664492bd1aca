package cpumanager

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"busaware/internal/faults"
	"busaware/internal/machine"
	"busaware/internal/sched"
	"busaware/internal/units"
)

// ---------------------------------------------------------------------------
// SignalState under concurrency (run with -race).

// Hammer one SignalState from many blockers and unblockers at once.
// The counters must be monotonic at every observation, and once the
// dust settles Blocked() must agree with the final count difference.
func TestSignalStateConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		perG       = 500
	)
	var st SignalState

	// Observer goroutine: counts must never move backwards.
	done := make(chan struct{})
	violation := make(chan string, 1)
	go func() {
		defer close(done)
		var lastB, lastU uint64
		for i := 0; ; i++ {
			b, u := st.Counts()
			if b < lastB || u < lastU {
				select {
				case violation <- fmt.Sprintf("counts went backwards: (%d,%d) after (%d,%d)", b, u, lastB, lastU):
				default:
				}
				return
			}
			lastB, lastU = b, u
			select {
			case <-time.After(time.Microsecond):
			default:
			}
			if b == goroutines*perG && u == goroutines*perG {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				st.Block()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				st.Unblock()
			}
		}()
	}
	wg.Wait()
	<-done
	select {
	case msg := <-violation:
		t.Fatal(msg)
	default:
	}

	b, u := st.Counts()
	if b != goroutines*perG || u != goroutines*perG {
		t.Fatalf("lost signals: blocks=%d unblocks=%d, want %d each", b, u, goroutines*perG)
	}
	// Equal counts: the thread must be runnable.
	if st.Blocked() {
		t.Error("Blocked() true with blocks == unblocks")
	}

	// Skew the counts and check Blocked() converges to the difference.
	st.Block()
	if !st.Blocked() {
		t.Error("Blocked() false with blocks > unblocks")
	}
	st.Unblock()
	st.Unblock()
	if st.Blocked() {
		t.Error("Blocked() true with unblocks > blocks (inversion must leave thread runnable)")
	}
}

// ---------------------------------------------------------------------------
// Client: error wrapping, retry and backoff.

// Transport errors must be inspectable with errors.Is / errors.As, not
// string matching.
func TestDialErrorWrapped(t *testing.T) {
	_, err := Dial("tcp", "127.0.0.1:1", "x", 1) // nothing listens on port 1
	if err == nil {
		t.Fatal("Dial to dead port succeeded")
	}
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Errorf("net.OpError not reachable through %v", err)
	}
}

// Timed-out requests are retried with exponential backoff and succeed
// once the wire recovers.
func TestClientRetriesTimeouts(t *testing.T) {
	mgr, err := NewManager(200 * units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go mgr.Serve(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	// Fail the first two writes with a timeout, then recover.
	inj := faults.New(faults.Config{Seed: 1, RequestLoss: 1})
	flaky := faults.NewFlakyConn(conn, inj)

	var delays []time.Duration
	var mu sync.Mutex
	sleeper := faults.Sleeper(func(d time.Duration) {
		mu.Lock()
		delays = append(delays, d)
		mu.Unlock()
		if len(delays) == 2 {
			inj.SetConfig(faults.Config{}) // wire recovers before try 3
		}
	})

	c, err := Connect(flaky, "retry-app", 2,
		WithRequestTimeout(time.Second),
		WithRetry(3, 10*time.Millisecond),
		withSleeper(sleeper),
	)
	if err != nil {
		t.Fatalf("connect with retry: %v", err)
	}
	defer c.Disconnect()

	mu.Lock()
	got := append([]time.Duration(nil), delays...)
	mu.Unlock()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("slept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("backoff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// When every attempt times out the client gives up with a wrapped
// timeout, not a hang.
func TestClientGivesUpAfterRetries(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	inj := faults.New(faults.Config{Seed: 1, RequestLoss: 1})
	flaky := faults.NewFlakyConn(client, inj)

	var slept int
	sleeper := faults.Sleeper(func(time.Duration) { slept++ })

	_, err := Connect(flaky, "doomed", 1, WithRetry(3, time.Millisecond), withSleeper(sleeper))
	if err == nil {
		t.Fatal("connect over a dead wire succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("exhausted retries did not surface a timeout: %v", err)
	}
	if slept != 2 {
		t.Errorf("slept %d times for 3 attempts, want 2", slept)
	}
}

// A refused operation (manager-side error) is not retried.
func TestClientDoesNotRetryRefusals(t *testing.T) {
	mgr, err := NewManager(200 * units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go mgr.Serve(l)

	var slept int
	sleeper := faults.Sleeper(func(time.Duration) { slept++ })
	_, err = Dial("tcp", l.Addr().String(), "bad", 0,
		WithRetry(5, time.Millisecond), withSleeper(sleeper))
	if err == nil {
		t.Fatal("connect with 0 threads succeeded")
	}
	if slept != 0 {
		t.Errorf("refused request was retried %d times", slept)
	}
}

// ---------------------------------------------------------------------------
// Manager: signal faults and session reaping.

func testSession(t *testing.T, m *Manager, name string, threads int) *Session {
	t.Helper()
	s, err := m.connect(name, threads)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Duplicated and delayed signals are absorbed by the count-based
// blocking rule: after a block round and an unblock round every thread
// is runnable again, whatever the injector did in between.
func TestManagerSignalFaultsConverge(t *testing.T) {
	mgr, err := NewManager(200 * units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s := testSession(t, mgr, "app", 4)
	mgr.SetFaultInjector(faults.New(faults.Config{Seed: 3, SignalDup: 0.4, SignalDelay: 0.4}))

	for round := 0; round < 50; round++ {
		mgr.Block(s)
		mgr.Unblock(s)
	}
	// Flush anything still queued: fault-free rounds drain the delayed
	// list and deliver pairwise.
	mgr.SetFaultInjector(nil)
	mgr.Block(s)
	mgr.Unblock(s)

	for i, st := range s.SignalStates() {
		b, u := st.Counts()
		if b != u {
			t.Errorf("thread %d: blocks=%d unblocks=%d after symmetric rounds", i, b, u)
		}
		if st.Blocked() {
			t.Errorf("thread %d still blocked", i)
		}
	}
}

// Dropped signals change delivery counts but never corrupt them, and
// SignalsSent only counts actual deliveries.
func TestManagerSignalLoss(t *testing.T) {
	mgr, err := NewManager(200 * units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s := testSession(t, mgr, "app", 8)
	mgr.SetFaultInjector(faults.New(faults.Config{Seed: 5, SignalLoss: 0.5}))
	for i := 0; i < 20; i++ {
		mgr.Block(s)
	}
	var delivered uint64
	for _, st := range s.SignalStates() {
		b, _ := st.Counts()
		delivered += b
	}
	if delivered == 0 || delivered == 20*8 {
		t.Errorf("50%% signal loss delivered %d/160 signals", delivered)
	}
	if got := mgr.SignalsSent(); got != delivered {
		t.Errorf("SignalsSent=%d, delivered=%d", got, delivered)
	}
}

// A session whose application goes silent past the reap timeout is
// reclaimed; publishing to the arena counts as proof of life.
func TestManagerReap(t *testing.T) {
	mgr, err := NewManager(200 * units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	dead := testSession(t, mgr, "dead", 2)
	alive := testSession(t, mgr, "alive", 2)

	// Reaping disabled: nothing happens no matter how stale.
	if got := mgr.Reap(10 * units.Second); got != nil {
		t.Fatalf("Reap with timeout disabled reclaimed %d sessions", len(got))
	}

	mgr.SetReapTimeout(units.Second)
	dead.Touch(0)
	alive.Touch(0)
	// The live app keeps publishing; the dead one went dark at t=0.
	alive.Arena.Publish(1000, 3*units.Second)

	reaped := mgr.Reap(3 * units.Second)
	if len(reaped) != 1 || reaped[0] != dead {
		t.Fatalf("reaped %d sessions, want exactly the dead one", len(reaped))
	}
	if _, err := mgr.Attach(dead.ID); err == nil {
		t.Error("reaped session still attachable")
	}
	if _, err := mgr.Attach(alive.ID); err != nil {
		t.Errorf("live session reaped: %v", err)
	}
}

// The director reclaims a reaped session's processors: its job leaves
// the policy, so the survivor gets the machine.
func TestDirectorReapsDeadSessions(t *testing.T) {
	mgr, err := NewManager(200 * units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetReapTimeout(300 * units.Millisecond)
	s, err := sched.New("window", machine.DefaultConfig(), 1, sched.Params{})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := NewDirector(mgr, s)
	if err != nil {
		t.Fatal(err)
	}

	dead := testSession(t, mgr, "dead", 2)
	alive := testSession(t, mgr, "alive", 2)
	_ = dead

	quantum := 200 * units.Millisecond
	var reaped int
	for i := 1; i <= 5; i++ {
		// Only the live app publishes.
		alive.Arena.Publish(500, units.Time(i)*quantum)
		out := dir.Tick()
		reaped += out.Reaped
	}
	if reaped != 1 {
		t.Fatalf("director reaped %d sessions, want 1", reaped)
	}
	if len(dir.jobs) != 1 {
		t.Errorf("policy still tracks %d jobs, want 1", len(dir.jobs))
	}
	out := dir.Tick()
	if len(out.Sessions) != 1 || out.Sessions[0] != alive {
		t.Errorf("survivor not admitted after reap: %+v", out.Sessions)
	}
}
