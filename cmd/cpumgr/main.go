// Command cpumgr demonstrates the paper's user-level CPU manager
// protocol end to end with live goroutine "applications": a manager
// listens on a TCP socket (standing in for the UNIX socket), clients
// connect and publish bus-transaction rates through their shared
// arenas twice per quantum, and the manager runs the Quanta Window
// selection every quantum, blocking and unblocking applications with
// the inversion-tolerant signal counters.
//
// Everything runs in real time (scaled down); the output shows which
// applications each quantum admits and the rates the manager saw.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"busaware"
	"busaware/internal/cpumanager"
	"busaware/internal/sched"
	"busaware/internal/units"
)

func main() {
	quantumMs := flag.Int("quantum", 200, "manager quantum in (real) milliseconds")
	quanta := flag.Int("quanta", 10, "how many quanta to run")
	flag.Parse()

	quantum := units.Time(*quantumMs) * units.Millisecond
	mgr, err := cpumanager.NewManager(quantum)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer l.Close()
	go mgr.Serve(l)
	fmt.Printf("CPU manager listening on %s, quantum %v, arena update period %v\n\n",
		l.Addr(), mgr.Quantum(), mgr.UpdatePeriod())

	// Launch the paper's mixed workload as live clients: one CG
	// instance, two BBMA and two nBBMA antagonists.
	specs := []struct {
		name    string
		threads int
		rate    units.Rate // cumulative rate the app publishes
	}{
		{"CG#1", 2, 23.31},
		{"BBMA#1", 1, 23.6},
		{"BBMA#2", 1, 23.6},
		{"nBBMA#1", 1, 0.0037},
		{"nBBMA#2", 1, 0.0037},
	}
	// Connect and attach every client before any publishes, in spec
	// order: session IDs follow connect order and the Director adds
	// jobs in ID order, so this keeps the admissions reproducible.
	stop := make(chan struct{})
	for _, spec := range specs {
		c, err := cpumanager.Dial("tcp", l.Addr().String(), spec.name, spec.threads)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", spec.name, err))
		}
		session, err := mgr.Attach(c.SessionID())
		if err != nil {
			fatal(fmt.Errorf("%s: %w", spec.name, err))
		}
		go runClient(c, session, spec.rate, stop)
	}

	// Give clients a moment to publish.
	time.Sleep(50 * time.Millisecond)

	// The manager's scheduling loop: the Director reads arenas, runs
	// the Quanta Window selection, and enforces it with signals.
	policy, err := sched.New("window", busaware.PaperMachine(), 1, sched.Params{})
	if err != nil {
		fatal(err)
	}
	director, err := cpumanager.NewDirector(mgr, policy)
	if err != nil {
		fatal(err)
	}
	for q := 0; q < *quanta; q++ {
		out := director.Tick()
		var names []string
		for _, s := range out.Sessions {
			names = append(names, s.Instance)
		}
		fmt.Printf("quantum %2d: admitted %v (%d blocked)\n", q+1, names, out.Blocked)
		time.Sleep(time.Duration(*quantumMs) * time.Millisecond / 10) // scaled real time
	}
	close(stop)
	fmt.Printf("\nsignals sent: %d; sessions at exit: %d\n", mgr.SignalsSent(), len(mgr.Sessions()))
}

// runClient is one live application, connected and attached: it
// publishes its rate twice per quantum through the session's arena
// until stopped, honouring block/unblock signals, then disconnects.
func runClient(c *cpumanager.Client, session *cpumanager.Session, rate units.Rate, stop <-chan struct{}) {
	defer c.Disconnect()
	period := time.Duration(c.UpdatePeriod()) * time.Microsecond / 10 // scaled
	tick := time.NewTicker(period)
	defer tick.Stop()
	start := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if session.Blocked() {
				continue // a blocked app makes no progress and publishes nothing
			}
			session.Arena.Publish(rate, units.Time(time.Since(start).Microseconds()))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpumgr:", err)
	os.Exit(1)
}
