package workload

import "busaware/internal/units"

// Server-class profiles — the paper's future-work direction ("we plan
// to test our scheduler with I/O and network-intensive workloads which
// stress the bus, using scientific applications, web and database
// servers"), made concrete as synthetic profiles.
//
// Unlike the barrier-synchronized scientific codes, server threads
// handle independent requests: no gang barriers, bursty bus usage
// driven by request trains, and (for the database) a large dirty
// buffer pool that makes migrations expensive.

// WebServer returns a request-driven two-thread profile: short bursts
// of memory traffic (request parsing + response assembly streaming
// through the NIC's DMA region) separated by longer low-traffic
// stretches. The irregular burst train makes it, like Raytrace, a
// stress test for the Latest Quantum estimator.
func WebServer() Profile {
	return Profile{
		Name:     "WebServer",
		Threads:  2,
		SoloTime: 12 * units.Second,
		Phases: []Phase{
			{Duration: 30 * ms, Demand: 9.0, StallFrac: 0.55},
			{Duration: 110 * ms, Demand: 0.9, StallFrac: 0.07},
			{Duration: 50 * ms, Demand: 9.0, StallFrac: 0.55},
			{Duration: 160 * ms, Demand: 0.9, StallFrac: 0.07},
		},
		// Request handlers rebuild state quickly after migrating.
		MigrationPenalty: 800,
		// Independent requests: no barriers.
	}
}

// Database returns an OLTP-ish two-thread profile: sustained moderate
// bus traffic from random index probes, a cache-resident buffer pool
// (large, dirty working set) and correspondingly painful migrations.
func Database() Profile {
	return Profile{
		Name:     "Database",
		Threads:  2,
		SoloTime: 13 * units.Second,
		Phases: []Phase{
			{Duration: 200 * ms, Demand: 4.8, StallFrac: 0.38},
			{Duration: 60 * ms, Demand: 7.5, StallFrac: 0.5},
		},
		MigrationPenalty: 5000,
	}
}

// ServerProfiles returns the server-class registry additions.
func ServerProfiles() []Profile {
	return []Profile{WebServer(), Database()}
}
