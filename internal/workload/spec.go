package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// maxInstances bounds the instances one spec may name.
const maxInstances = 1024

// Group is Count instances of one profile.
type Group struct {
	Profile Profile
	Count   int
}

// Mix is a parsed workload spec: groups in spec order, adjacent groups
// of one profile merged, so specs naming the same instances ("CG x2",
// "CG, CG") parse to the same Mix without instantiating any.
type Mix []Group

// ParseMix parses a workload spec like "CG x2, BBMA x4". The grammar
// is a comma-separated list of "<name> [xN]" items; names resolve
// through ByName (the eleven paper applications plus BBMA, nBBMA,
// STREAM and the server profiles). Empty items are skipped; a spec
// with no items at all is an error.
//
// This is the one grammar shared by the smpsim CLI's -apps flag and
// the smpsimd daemon's "apps" request field, so a workload pasted from
// one is always valid in the other.
//
// A spec names at most maxInstances instances in all, so one request
// cannot make a daemon allocate without bound.
func ParseMix(spec string) (Mix, error) {
	var mix Mix
	total := 0
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name := item
		n := 1
		if i := strings.LastIndex(item, " x"); i >= 0 {
			parsed, err := strconv.Atoi(strings.TrimSpace(item[i+2:]))
			if err != nil || parsed < 1 {
				return nil, fmt.Errorf("workload: bad multiplicity in %q", item)
			}
			name = strings.TrimSpace(item[:i])
			n = parsed
		}
		p, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload: unknown application %q", name)
		}
		if n > maxInstances-total {
			return nil, fmt.Errorf("workload: spec exceeds %d instances", maxInstances)
		}
		total += n
		if last := len(mix) - 1; last < 0 || mix[last].Profile.Name != p.Name {
			mix = append(mix, Group{Profile: p})
		}
		mix[len(mix)-1].Count += n
	}
	if total == 0 {
		return nil, fmt.Errorf("workload: empty workload %q", spec)
	}
	return mix, nil
}

// ParseSpec parses spec and instantiates it (ParseMix, then Build).
func ParseSpec(spec string) ([]*App, error) {
	mix, err := ParseMix(spec)
	if err != nil {
		return nil, err
	}
	return mix.Build(), nil
}

// Build creates the mix's application instances. Instances of the
// same profile are numbered in order of appearance across the whole
// mix, so "CG, CG x2" yields CG#1, CG#2, CG#3 — exactly the instances
// "CG x3" yields — and "CG, BBMA, CG" yields CG#1, BBMA#1, CG#2.
func (m Mix) Build() []*App {
	var apps []*App
	counts := map[string]int{}
	for _, g := range m {
		for i := 0; i < g.Count; i++ {
			counts[g.Profile.Name]++
			apps = append(apps, NewApp(g.Profile, fmt.Sprintf("%s#%d", g.Profile.Name, counts[g.Profile.Name])))
		}
	}
	return apps
}

// String renders the minimal spec that parses back to m, run-length
// encoded ("CG x2, BBMA x4"): what makes the daemon's result cache key
// exact rather than textual.
func (m Mix) String() string {
	var b []byte
	for i, g := range m {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, g.Profile.Name...)
		if g.Count > 1 {
			b = strconv.AppendInt(append(b, " x"...), int64(g.Count), 10)
		}
	}
	return string(b)
}
