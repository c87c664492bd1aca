package sched

import (
	"fmt"
	"strings"

	"busaware/internal/machine"
)

// Policies lists the policy names New accepts.
func Policies() []string {
	return []string{"latest", "window", "ewma", "oracle", "optimal", "linux", "gang", "rr"}
}

// New builds the named policy for machine m. Every policy schedules
// against the paper machine's bus: the bandwidth-aware family budgets
// units.SustainedBusRate, and Optimal prices subsets on bus.New's
// model. The seed only affects the Linux baseline's runqueue
// shuffling, and p tunes the bandwidth-aware family (latest, window,
// ewma, oracle, gang) only. This is the one policy table: the busaware
// facade, the HTTP API, the CPU manager and every experiment cell
// build their schedulers here, the first two prefixing errors with
// their own package name.
func New(policy string, m machine.Config, seed int64, p Params) (Scheduler, error) {
	switch policy {
	case "latest":
		return newBandwidthAware("LatestQuantum", EstLatest, 1, m.NumCPUs, p), nil
	case "window":
		return newBandwidthAware("QuantaWindow", EstWindow, DefaultWindow, m.NumCPUs, p), nil
	case "ewma":
		return newBandwidthAware("EWMA", EstEWMA, DefaultWindow, m.NumCPUs, p), nil
	case "oracle":
		return newBandwidthAware("Oracle", EstOracle, 1, m.NumCPUs, p), nil
	case "gang":
		return newBandwidthAware("GangRR", EstNone, 1, m.NumCPUs, p), nil
	case "linux":
		return newLinux(m.NumCPUs, seed), nil
	case "rr":
		return &RoundRobin{numCPUs: m.NumCPUs}, nil
	case "optimal":
		return newOptimal(m.NumCPUs), nil
	}
	names := Policies()
	return nil, fmt.Errorf("unknown policy %q (want %s or %s)", policy,
		strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
}
