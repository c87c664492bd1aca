package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"busaware/internal/units"
)

// The paper-application registry. Cumulative solo (two-thread)
// transaction rates are read off Figure 1A: the paper states the range
// is 0.48 to 23.31 trans/usec with SP, MG, Raytrace and CG the top
// four; Raytrace's four-thread cumulative rate is 34.89. Stall
// fractions and migration penalties are calibrated so the simulator
// reproduces Figure 1B's slowdown bands (41-61% for the top four when
// two instances co-run, 2x-3x against two BBMA copies, near-solo
// against nBBMA; LU CB and Water-nsqr migration-sensitive thanks to
// their ~99.5% L2 hit rates, which make a rebuilt working set costly).

const ms = units.Millisecond

// uniform builds a single-phase two-thread profile from the cumulative
// solo rate as plotted in Figure 1A.
func uniform(name string, cumRate units.Rate, stall float64, solo, migPenalty units.Time) Profile {
	return Profile{
		Name:     name,
		Threads:  2,
		SoloTime: solo,
		Phases: []Phase{
			{Duration: 100 * ms, Demand: cumRate / 2, StallFrac: stall},
		},
		MigrationPenalty: migPenalty,
		BarrierInterval:  DefaultBarrierInterval,
	}
}

// DefaultBarrierInterval approximates the barrier frequency of the
// OpenMP NAS and pthreads Splash-2 codes: tens of milliseconds of
// computation between global synchronization points.
const DefaultBarrierInterval = 40 * ms

// Radiosity through CG, in Figure 1A's increasing-rate order.
func paperProfiles() []Profile {
	ps := []Profile{
		uniform("Radiosity", 0.48, 0.04, 14*units.Second, 500),
		// Water-nsqr: tiny bandwidth but ~99.5% hit rate; rebuilding its
		// working set after a migration is expensive (paper Section 3).
		uniform("Water-nsqr", 0.90, 0.05, 13*units.Second, 6000),
		uniform("Volrend", 1.40, 0.08, 12*units.Second, 1000),
		uniform("Barnes", 2.20, 0.12, 15*units.Second, 1200),
		uniform("FMM", 3.20, 0.18, 14*units.Second, 1200),
		{
			// LU CB: 99.53% hit rate when run with two threads (paper),
			// irregular bursts, very migration-sensitive.
			Name:     "LU CB",
			Threads:  2,
			SoloTime: 13 * units.Second,
			Phases: []Phase{
				{Duration: 250 * ms, Demand: 1.2, StallFrac: 0.10},
				{Duration: 80 * ms, Demand: 4.71, StallFrac: 0.35},
			},
			MigrationPenalty: 8000,
			BarrierInterval:  DefaultBarrierInterval,
		},
		uniform("BT", 6.80, 0.30, 16*units.Second, 1500),
		uniform("SP", 15.0, 0.52, 15*units.Second, 1500),
		uniform("MG", 16.5, 0.56, 14*units.Second, 1500),
		{
			// Raytrace: "a highly irregular bus transactions pattern";
			// the cycle below averages 17.45 cumulative (34.89 over four
			// threads) while swinging between near-saturating bursts and
			// moderate stretches. The bursts are what mislead the
			// Latest Quantum policy in Figure 2B.
			Name:     "Raytrace",
			Threads:  2,
			SoloTime: 14 * units.Second,
			// The cycle is irregular and incommensurate with the 200ms
			// scheduling quantum, so the latest quantum's sample is a
			// poor predictor of the next quantum's behaviour — exactly
			// what destabilizes Latest Quantum.
			Phases: []Phase{
				{Duration: 160 * ms, Demand: 5.2, StallFrac: 0.42},
				{Duration: 70 * ms, Demand: 20.5, StallFrac: 0.88},
				{Duration: 240 * ms, Demand: 5.2, StallFrac: 0.42},
				{Duration: 90 * ms, Demand: 20.5, StallFrac: 0.88},
				{Duration: 140 * ms, Demand: 5.2, StallFrac: 0.42},
			},
			MigrationPenalty: 1200,
			BarrierInterval:  DefaultBarrierInterval,
		},
		uniform("CG", 23.31, 0.65, 13*units.Second, 1500),
	}
	return ps
}

// paperTable holds paperProfiles, built once: PaperApps and ByName
// hand out copies.
var paperTable = paperProfiles()

// PaperApps returns the eleven applications of Figure 1 in increasing
// order of solo transaction rate, freshly copied so callers may mutate.
func PaperApps() []Profile {
	ps := make([]Profile, len(paperTable))
	for i, p := range paperTable {
		ps[i] = p.ownPhases()
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].SoloRate() < ps[j].SoloRate() })
	return ps
}

// ownPhases returns p with a private copy of its Phases, so a caller
// may mutate the copy without touching paperTable.
func (p Profile) ownPhases() Profile {
	p.Phases = append([]Phase(nil), p.Phases...)
	return p
}

// ByName looks an application profile up by name; it also resolves the
// microbenchmarks ("BBMA", "nBBMA") and "STREAM".
func ByName(name string) (Profile, bool) {
	switch name {
	case "BBMA":
		return BBMA(), true
	case "nBBMA":
		return NBBMA(), true
	case "STREAM":
		return STREAM(), true
	case "WebServer":
		return WebServer(), true
	case "Database":
		return Database(), true
	}
	for _, p := range paperTable {
		if p.Name == name {
			return p.ownPhases(), true
		}
	}
	return Profile{}, false
}

// BBMA is the bus-saturating antagonist: a single thread streaming
// back-to-back line fills at 23.6 trans/usec with ~0% L2 hit rate. It
// never terminates; experiments kill it when the measured applications
// finish.
func BBMA() Profile {
	return Profile{
		Name:    "BBMA",
		Threads: 1,
		Phases: []Phase{
			{Duration: 100 * ms, Demand: 23.6, StallFrac: 0.97},
		},
		// ~0% L2 hit rate: nothing cached worth rebuilding, so
		// migrations are free.
	}
}

// NBBMA is the bus-idle companion: near-perfect cache locality,
// 0.0037 trans/usec.
func NBBMA() Profile {
	return Profile{
		Name:    "nBBMA",
		Threads: 1,
		Phases: []Phase{
			{Duration: 100 * ms, Demand: 0.0037, StallFrac: 0.001},
		},
		MigrationPenalty: 200,
	}
}

// STREAM is the calibration workload: four threads demanding more
// bandwidth than the bus can serve, so the served rate measures the
// practically sustainable capacity.
func STREAM() Profile {
	return Profile{
		Name:     "STREAM",
		Threads:  4,
		SoloTime: 5 * units.Second,
		Phases: []Phase{
			{Duration: 100 * ms, Demand: 10.5, StallFrac: 0.95},
		},
	}
}

// RandomProfile generates a valid synthetic profile for fuzzing and
// capacity-planning examples. Rates, stall fractions and burstiness
// are drawn to span the paper's observed ranges.
func RandomProfile(rng *rand.Rand, name string) Profile {
	threads := 1 + rng.Intn(4)
	nPhases := 1 + rng.Intn(3)
	phases := make([]Phase, nPhases)
	for i := range phases {
		demand := units.Rate(rng.Float64() * 12)
		// Each product is rounded by its float64 conversion, so neither
		// fuses into the sum on any GOARCH.
		phases[i] = Phase{
			Duration:  units.Time(50+rng.Intn(300)) * ms,
			Demand:    demand,
			StallFrac: minf(0.97, float64(float64(demand)/12*0.8)+float64(rng.Float64()*0.1)),
		}
	}
	// Three discarded draws, one before solo and two after: they keep
	// every later draw, and so the profiles a seed generates for the
	// robustness sweep, unchanged.
	rng.Float64()
	solo := units.Time(4+rng.Intn(20)) * units.Second
	rng.Intn(224)
	rng.Float64()
	return Profile{
		Name:             name,
		Threads:          threads,
		SoloTime:         solo,
		Phases:           phases,
		MigrationPenalty: units.Time(rng.Intn(6000)),
		BarrierInterval:  units.Time(rng.Intn(3)) * DefaultBarrierInterval,
	}
}

// Instances builds n numbered instances of p ("CG#1", "CG#2", ...).
func Instances(p Profile, n int) []*App {
	apps := make([]*App, n)
	for i := range apps {
		apps[i] = NewApp(p, fmt.Sprintf("%s#%d", p.Name, i+1))
	}
	return apps
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
