// Package scenario turns static experiments into time-varying ones: a
// load-pattern DSL (ramp / sine / spike / step segments with linear
// interpolation, composable sums, named presets), a seeded
// deterministic Schedule that materializes a pattern into concrete
// arrival/departure events for the simulator, and an open-loop arrival
// schedule for the load driver.
//
// A pattern is a piecewise level function of time. The level is
// dimensionless: the simulator reads it as a target population of live
// scenario applications, the open-loop driver as a target request rate
// in requests per second. Time is unitless in the same way — the
// simulator interprets pattern time as simulated microseconds, the
// driver as wall-clock microseconds — so one pattern string drives
// both planes.
//
// The compact grammar, shared by CLI flags, HTTP requests and the YAML
// profile file (see profile.go):
//
//	pattern := track { '+' track }
//	track   := preset | seg { ';' seg }
//	seg     := "step:"  dur "@" level
//	         | "ramp:"  dur "@" from ".." to
//	         | "spike:" dur "@" base ".." peak
//	         | "sine:"  dur "@" mean "~" amp [ "/" period ]
//
// step holds a constant level; ramp interpolates linearly from..to;
// spike rises linearly base->peak at the segment midpoint and decays
// back (a triangle — the flash crowd); sine oscillates mean±amp with
// the given period (default: the segment duration). Durations use Go
// syntax ("30s", "500ms"). Tracks sum pointwise, each holding its
// final level beyond its own end, so a short spike track composes over
// a long diurnal baseline. Presets: diurnal, flashcrowd, stepstorm.
//
// Determinism contract: ParsePattern is a pure function of its input,
// Pattern.String renders the canonical form ("step:10s@4" and a
// preset expanding to it collide), and every materialization is a pure
// function of (pattern, seed), so the same seed and pattern always
// yield the bitwise-identical schedule.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"busaware/internal/units"
)

// SegKind is a pattern segment's shape.
type SegKind int

const (
	// SegStep holds a constant level for the segment duration.
	SegStep SegKind = iota
	// SegRamp interpolates linearly From -> To.
	SegRamp
	// SegSpike rises linearly From -> To at the midpoint and decays
	// back to From — the flash-crowd triangle.
	SegSpike
	// SegSine oscillates From ± To with the given Period (From is the
	// mean, To the amplitude).
	SegSine
)

func (k SegKind) String() string {
	switch k {
	case SegStep:
		return "step"
	case SegRamp:
		return "ramp"
	case SegSpike:
		return "spike"
	case SegSine:
		return "sine"
	default:
		return fmt.Sprintf("seg(%d)", int(k))
	}
}

// Segment is one piece of a pattern track.
type Segment struct {
	Kind SegKind
	// Dur is the segment length (pattern time).
	Dur units.Time
	// From and To parameterize the shape: step uses From only; ramp
	// and spike interpolate From..To; sine reads From as the mean and
	// To as the amplitude.
	From, To float64
	// Period is the sine period; zero selects the segment duration.
	// Unused by the other kinds.
	Period units.Time
}

// level evaluates the segment at offset t in [0, Dur].
func (s Segment) level(t units.Time) float64 {
	switch s.Kind {
	case SegRamp:
		return s.From + (s.To-s.From)*frac(t, s.Dur)
	case SegSpike:
		f := frac(t, s.Dur)
		if f <= 0.5 {
			return s.From + (s.To-s.From)*(2*f)
		}
		return s.To + (s.From-s.To)*(2*f-1)
	case SegSine:
		period := s.Period
		if period <= 0 {
			period = s.Dur
		}
		v := s.From + s.To*math.Sin(2*math.Pi*float64(t)/float64(period))
		if v < 0 {
			v = 0
		}
		return v
	default: // SegStep
		return s.From
	}
}

// end returns the segment's final level — what a track holds after it
// runs out of segments.
func (s Segment) end() float64 { return s.level(s.Dur) }

func frac(t, dur units.Time) float64 {
	if dur <= 0 {
		return 0
	}
	f := float64(t) / float64(dur)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Track is one segment list; a Pattern sums one or more tracks.
type Track struct {
	Segments []Segment
}

// Duration is the track's total length.
func (tr Track) Duration() units.Time {
	var d units.Time
	for _, s := range tr.Segments {
		d += s.Dur
	}
	return d
}

// Level evaluates the track at time t. Beyond the final segment the
// track holds its final level, so summed tracks of different lengths
// compose without cliffs.
func (tr Track) Level(t units.Time) float64 {
	if len(tr.Segments) == 0 {
		return 0
	}
	if t < 0 {
		t = 0
	}
	for _, s := range tr.Segments {
		if t < s.Dur {
			return s.level(t)
		}
		t -= s.Dur
	}
	return tr.Segments[len(tr.Segments)-1].end()
}

// Pattern is a parsed load pattern: the pointwise sum of its tracks.
type Pattern struct {
	Tracks []Track
}

// Duration is the longest track's length — the scenario horizon.
func (p *Pattern) Duration() units.Time {
	var d units.Time
	for _, tr := range p.Tracks {
		if td := tr.Duration(); td > d {
			d = td
		}
	}
	return d
}

// Level evaluates the pattern at time t (the sum of its tracks,
// clamped at zero).
func (p *Pattern) Level(t units.Time) float64 {
	var v float64
	for _, tr := range p.Tracks {
		v += tr.Level(t)
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Phase is one labeled stretch of the pattern's primary (first) track
// — the reporting granularity for per-phase load accounting.
type Phase struct {
	// Name is "<kind>#<index>", e.g. "spike#1".
	Name string
	Kind SegKind
	// Start and End bound the phase in pattern time; the final phase's
	// End extends to the whole pattern's duration.
	Start, End units.Time
}

// Phases labels the primary track's segments. Composed patterns are
// phased by their first track: the baseline defines the episode
// structure, overlays ride on it.
func (p *Pattern) Phases() []Phase {
	if len(p.Tracks) == 0 {
		return nil
	}
	var out []Phase
	var at units.Time
	for i, s := range p.Tracks[0].Segments {
		out = append(out, Phase{
			Name:  fmt.Sprintf("%s#%d", s.Kind, i),
			Kind:  s.Kind,
			Start: at,
			End:   at + s.Dur,
		})
		at += s.Dur
	}
	if n := len(out); n > 0 {
		if d := p.Duration(); d > out[n-1].End {
			out[n-1].End = d
		}
	}
	return out
}

// PhaseAt returns the index into Phases covering time t (the last
// phase for t beyond the end), or -1 for an empty pattern.
func (p *Pattern) PhaseAt(t units.Time) int {
	phases := p.Phases()
	if len(phases) == 0 {
		return -1
	}
	for i, ph := range phases {
		if t < ph.End {
			return i
		}
	}
	return len(phases) - 1
}

// String renders the canonical form: segments joined by "; ", tracks
// by " + ", durations in the shortest exact unit, levels via Go's
// shortest float encoding. Presets render expanded, so a preset and
// its expansion canonicalize — and cache — identically.
func (p *Pattern) String() string {
	var tracks []string
	for _, tr := range p.Tracks {
		var segs []string
		for _, s := range tr.Segments {
			segs = append(segs, s.String())
		}
		tracks = append(tracks, strings.Join(segs, "; "))
	}
	return strings.Join(tracks, " + ")
}

// String renders the segment in the canonical grammar.
func (s Segment) String() string {
	switch s.Kind {
	case SegRamp, SegSpike:
		return fmt.Sprintf("%s:%s@%s..%s", s.Kind, formatDur(s.Dur), formatLevel(s.From), formatLevel(s.To))
	case SegSine:
		if s.Period > 0 && s.Period != s.Dur {
			return fmt.Sprintf("sine:%s@%s~%s/%s", formatDur(s.Dur), formatLevel(s.From), formatLevel(s.To), formatDur(s.Period))
		}
		return fmt.Sprintf("sine:%s@%s~%s", formatDur(s.Dur), formatLevel(s.From), formatLevel(s.To))
	default:
		return fmt.Sprintf("step:%s@%s", formatDur(s.Dur), formatLevel(s.From))
	}
}

func formatDur(d units.Time) string {
	switch {
	case d >= units.Second && d%units.Second == 0:
		return fmt.Sprintf("%ds", int64(d/units.Second))
	case d >= units.Millisecond && d%units.Millisecond == 0:
		return fmt.Sprintf("%dms", int64(d/units.Millisecond))
	default:
		return fmt.Sprintf("%dus", int64(d))
	}
}

func formatLevel(v float64) string {
	// '+' is the track separator, so a canonical level must never
	// render an explicit plus exponent: "1e+09" would split mid-float
	// on re-parse. "1e9" is equivalent and ParseFloat-valid.
	return strings.ReplaceAll(strconv.FormatFloat(v, 'g', -1, 64), "e+", "e")
}

// Presets name the episode shapes the evaluation leans on. Levels are
// calibrated for both planes: as open-loop request rates they overload
// a small-pool daemon only during the peaks; as churn populations they
// swing a 4-CPU machine between idle and heavy oversubscription.
var presets = map[string]string{
	// diurnal compresses a day into a minute: a sinusoidal swing
	// between a quiet trough and a busy peak.
	"diurnal": "sine:60s@10~8",
	// flashcrowd is a calm baseline, a sharp triangular spike to 15x,
	// and a long recovery tail — the 429/backpressure stress episode.
	"flashcrowd": "step:10s@4; spike:10s@4..60; step:20s@4",
	// stepstorm is a staircase of abrupt level shifts ending in a
	// drop — the regime changes that destabilize warmup-dependent
	// policies.
	"stepstorm": "step:8s@2; step:8s@8; step:8s@16; step:8s@32; step:8s@4",
}

// Presets lists the built-in pattern names, sorted.
func Presets() []string {
	return []string{"diurnal", "flashcrowd", "stepstorm"}
}

// maxSegments bounds a parse so fuzzed inputs cannot balloon memory.
const maxSegments = 1024

// ParsePattern parses the compact grammar (see the package comment).
// Preset names resolve to their expansions; profiles loaded from a
// YAML file resolve via ParsePatternWith.
func ParsePattern(s string) (*Pattern, error) {
	return ParsePatternWith(s, nil)
}

// ParsePatternWith is ParsePattern with an extra profile table
// (name -> pattern string, e.g. from LoadProfiles) consulted before
// the built-in presets. Profile values must not themselves be profile
// names; one level of indirection keeps resolution total.
func ParsePatternWith(s string, profiles map[string]string) (*Pattern, error) {
	p := &Pattern{}
	nsegs := 0
	for _, rawTrack := range strings.Split(s, "+") {
		rawTrack = strings.TrimSpace(rawTrack)
		if rawTrack == "" {
			return nil, fmt.Errorf("scenario: empty track in pattern %q", s)
		}
		if body, ok := profiles[rawTrack]; ok {
			sub, err := ParsePatternWith(body, nil)
			if err != nil {
				return nil, fmt.Errorf("scenario: profile %q: %w", rawTrack, err)
			}
			p.Tracks = append(p.Tracks, sub.Tracks...)
			continue
		}
		if body, ok := presets[rawTrack]; ok {
			sub, err := ParsePatternWith(body, nil)
			if err != nil {
				return nil, fmt.Errorf("scenario: preset %q: %w", rawTrack, err)
			}
			p.Tracks = append(p.Tracks, sub.Tracks...)
			continue
		}
		var tr Track
		for _, rawSeg := range splitSegs(rawTrack) {
			seg, err := parseSegment(rawSeg)
			if err != nil {
				return nil, err
			}
			tr.Segments = append(tr.Segments, seg)
			if nsegs++; nsegs > maxSegments {
				return nil, fmt.Errorf("scenario: pattern exceeds %d segments", maxSegments)
			}
		}
		if len(tr.Segments) == 0 {
			return nil, fmt.Errorf("scenario: track %q has no segments", rawTrack)
		}
		p.Tracks = append(p.Tracks, tr)
	}
	if len(p.Tracks) == 0 {
		return nil, fmt.Errorf("scenario: empty pattern")
	}
	return p, nil
}

// splitSegs splits a track into segment tokens on ';' or whitespace
// (both accepted on input; ';' is canonical).
func splitSegs(track string) []string {
	var out []string
	for _, part := range strings.FieldsFunc(track, func(r rune) bool {
		return r == ';' || r == ' ' || r == '\t'
	}) {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseSegment(tok string) (Segment, error) {
	kind, rest, ok := strings.Cut(tok, ":")
	if !ok {
		return Segment{}, fmt.Errorf("scenario: segment %q: want kind:dur@params (or a preset name)", tok)
	}
	durStr, params, ok := strings.Cut(rest, "@")
	if !ok {
		return Segment{}, fmt.Errorf("scenario: segment %q: missing '@params'", tok)
	}
	dur, err := parseDur(durStr)
	if err != nil {
		return Segment{}, fmt.Errorf("scenario: segment %q: %w", tok, err)
	}
	if dur <= 0 {
		return Segment{}, fmt.Errorf("scenario: segment %q: non-positive duration", tok)
	}
	seg := Segment{Dur: dur}
	switch kind {
	case "step":
		seg.Kind = SegStep
		if seg.From, err = parseLevel(params); err != nil {
			return Segment{}, fmt.Errorf("scenario: segment %q: %w", tok, err)
		}
	case "ramp", "spike":
		seg.Kind = SegRamp
		if kind == "spike" {
			seg.Kind = SegSpike
		}
		from, to, ok := strings.Cut(params, "..")
		if !ok {
			return Segment{}, fmt.Errorf("scenario: segment %q: want @from..to", tok)
		}
		if seg.From, err = parseLevel(from); err != nil {
			return Segment{}, fmt.Errorf("scenario: segment %q: %w", tok, err)
		}
		if seg.To, err = parseLevel(to); err != nil {
			return Segment{}, fmt.Errorf("scenario: segment %q: %w", tok, err)
		}
	case "sine":
		seg.Kind = SegSine
		mean, rest, ok := strings.Cut(params, "~")
		if !ok {
			return Segment{}, fmt.Errorf("scenario: segment %q: want @mean~amp[/period]", tok)
		}
		amp := rest
		if a, per, hasPer := strings.Cut(rest, "/"); hasPer {
			amp = a
			if seg.Period, err = parseDur(per); err != nil {
				return Segment{}, fmt.Errorf("scenario: segment %q: %w", tok, err)
			}
			if seg.Period <= 0 {
				return Segment{}, fmt.Errorf("scenario: segment %q: non-positive period", tok)
			}
		}
		if seg.From, err = parseLevel(mean); err != nil {
			return Segment{}, fmt.Errorf("scenario: segment %q: %w", tok, err)
		}
		if seg.To, err = parseLevel(amp); err != nil {
			return Segment{}, fmt.Errorf("scenario: segment %q: %w", tok, err)
		}
	default:
		return Segment{}, fmt.Errorf("scenario: segment %q: unknown kind %q (want step, ramp, spike or sine)", tok, kind)
	}
	return seg, nil
}

// maxPatternDur caps a single segment (and hence, with maxSegments,
// the whole pattern) so fuzzed durations cannot overflow Time math.
const maxPatternDur = 365 * 24 * time.Hour

func parseDur(s string) (units.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	if d < 0 || d > maxPatternDur {
		return 0, fmt.Errorf("duration %q out of range", s)
	}
	return units.Time(d / time.Microsecond), nil
}

func parseLevel(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad level %q", s)
	}
	if v < 0 || v > 1e9 {
		return 0, fmt.Errorf("level %q out of range [0, 1e9]", s)
	}
	return v, nil
}
