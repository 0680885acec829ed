// Package slo layers declarative service-level objectives over the obs
// registry and tsdb series rings. A Spec names an SLI (per-volume modeled
// op latency, pick-stall rate, bitmap-fallback rate, watchdog violations,
// recovery fallbacks, or an arbitrary counter ratio), an objective, and a
// pair of Google-SRE-style multi-window burn-rate alert conditions. An
// Engine evaluates every spec at each CP boundary against the modeled
// clock, driving a deterministic ok→warn→page state machine with
// hysteresis; a Set aggregates engines across systems (arms) for the
// artifact gates and the /debug/slo endpoint.
//
// Everything here reads only worker-invariant inputs (CP counter, modeled
// time, stable-snapshot-derived tsdb series), so evaluation streams are
// byte-identical at any worker width.
package slo

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"waflfs/internal/obs/rule"
)

// Kind selects the SLI a spec measures.
type Kind string

const (
	// Latency: fraction of modeled ops per volume completing under
	// Threshold, from the fixed-bucket lat_ns histograms. The threshold is
	// snapped up to the nearest bucket bound.
	Latency Kind = "latency"
	// Stall: fraction of allocator picks that did not hit a refill stall,
	// per space (volume or pool).
	Stall Kind = "stall"
	// Fallback: fraction of recorded picks not served by bitmap fallback.
	// Not in the defaults: cache-less arms legitimately run at 100%
	// fallback, so this SLI only makes sense on cache-enabled configs.
	Fallback Kind = "fallback"
	// Watchdog: fraction of invariant watchdog checks that passed.
	Watchdog Kind = "watchdog"
	// Recovery: fraction of mounts that did not fall back to a bitmap
	// scrub rebuild. This is the designed crash-paging signal.
	Recovery Kind = "recovery"
	// Ratio: explicit bad/total counter series suffixes.
	Ratio Kind = "ratio"
)

// Window is one burn-rate alert condition: alert when the error-budget
// burn rate is at least Burn over both the Fast and Slow trailing windows
// of modeled time.
type Window struct {
	Burn float64
	Fast time.Duration
	Slow time.Duration
}

// Spec is one declarative SLO.
type Spec struct {
	Name      string
	Kind      Kind
	Space     string // latency/stall: space selector ("vol.*", "pool", "*")
	Target    float64
	Threshold time.Duration // latency only
	Page      Window
	Warn      Window
	Hold      int    // consecutive below-level evals before downgrade
	MinEvents uint64 // slow-window event floor before alerting
	Bad       string // ratio: bad counter series suffix
	Total     string // ratio: total counter series suffix
}

// Default alert windows, in modeled time. The canonical SRE pairs
// (1h/5m etc.) assume wall-clock days; modeled runs compress to seconds
// of device+CPU time, so the pairs are scaled accordingly.
var (
	defaultPage = Window{Burn: 10, Fast: 30 * time.Second, Slow: 5 * time.Minute}
	defaultWarn = Window{Burn: 2, Fast: 150 * time.Second, Slow: 20 * time.Minute}
)

// DefaultSpecs is the stock portfolio: per-volume latency, per-space
// stalls, watchdog violations, and recovery fallbacks. Fallback rate is
// deliberately absent — see Kind Fallback.
func DefaultSpecs() []Spec {
	return []Spec{
		{Name: "latency", Kind: Latency, Space: "vol.*", Target: 0.99,
			Threshold: 20 * time.Millisecond, Page: defaultPage, Warn: defaultWarn,
			Hold: 3, MinEvents: 64},
		{Name: "stall", Kind: Stall, Space: "*", Target: 0.99,
			Page: defaultPage, Warn: defaultWarn, Hold: 3, MinEvents: 64},
		{Name: "watchdog", Kind: Watchdog, Target: 0.9999,
			Page: defaultPage, Warn: defaultWarn, Hold: 3, MinEvents: 1},
		{Name: "recovery", Kind: Recovery, Target: 0.999,
			Page: defaultPage, Warn: defaultWarn, Hold: 3, MinEvents: 1},
	}
}

// reservedNames collide with the scalar slo.* registry counters.
var reservedNames = map[string]bool{
	"evaluations": true, "warns": true, "pages": true, "transitions": true,
}

func (k Kind) valid() bool {
	switch k {
	case Latency, Stall, Fallback, Watchdog, Recovery, Ratio:
		return true
	}
	return false
}

// spaced reports whether the kind fans out over spaces (one alert instance
// per matching volume/pool) rather than a single system-level instance.
func (k Kind) spaced() bool { return k == Latency || k == Stall }

// normalize fills unset optional fields with defaults.
func (s *Spec) normalize() {
	if s.Name == "" {
		s.Name = string(s.Kind)
	}
	if s.Space == "" && s.Kind.spaced() {
		if s.Kind == Latency {
			s.Space = "vol.*"
		} else {
			s.Space = "*"
		}
	}
	if s.Kind == Latency && s.Threshold == 0 {
		s.Threshold = 20 * time.Millisecond
	}
	if s.Page == (Window{}) {
		s.Page = defaultPage
	}
	if s.Warn == (Window{}) {
		s.Warn = defaultWarn
	}
	if s.Hold == 0 {
		s.Hold = 3
	}
	if s.MinEvents == 0 {
		s.MinEvents = 1
	}
}

func (w Window) validate(label string) error {
	if !rule.Finite(w.Burn) || w.Burn <= 0 {
		return fmt.Errorf("%s burn %v must be finite and > 0", label, w.Burn)
	}
	if w.Fast <= 0 || w.Slow <= 0 {
		return fmt.Errorf("%s windows must be > 0", label)
	}
	if w.Fast > w.Slow {
		return fmt.Errorf("%s fast window %v exceeds slow window %v", label, w.Fast, w.Slow)
	}
	return nil
}

func (s *Spec) validate() error {
	if !s.Kind.valid() {
		return fmt.Errorf("unknown kind %q", s.Kind)
	}
	if !rule.ValidName(s.Name) {
		return fmt.Errorf("invalid name %q", s.Name)
	}
	if reservedNames[s.Name] {
		return fmt.Errorf("name %q is reserved", s.Name)
	}
	if !(s.Target > 0 && s.Target < 1) {
		return fmt.Errorf("target %v must be in (0,1)", s.Target)
	}
	if s.Kind.spaced() {
		if !rule.ValidPattern(s.Space) {
			return fmt.Errorf("invalid space %q", s.Space)
		}
	} else if s.Space != "" {
		return fmt.Errorf("kind %s takes no space", s.Kind)
	}
	if s.Kind == Latency && s.Threshold <= 0 {
		return fmt.Errorf("latency threshold %v must be > 0", s.Threshold)
	}
	if s.Kind != Latency && s.Threshold != 0 {
		return fmt.Errorf("kind %s takes no threshold", s.Kind)
	}
	if s.Kind == Ratio {
		if !rule.ValidName(s.Bad) || !rule.ValidName(s.Total) {
			return fmt.Errorf("ratio needs bad= and total= series suffixes")
		}
	} else if s.Bad != "" || s.Total != "" {
		return fmt.Errorf("kind %s takes no bad/total", s.Kind)
	}
	if err := s.Page.validate("page"); err != nil {
		return err
	}
	if err := s.Warn.validate("warn"); err != nil {
		return err
	}
	if s.Hold < 1 {
		return fmt.Errorf("hold %d must be >= 1", s.Hold)
	}
	return nil
}

// ParseSpecs parses a waflbench-style spec string in the shared clause
// grammar (internal/obs/rule): clauses separated by ';', each either the
// literal "default" (expanding DefaultSpecs) or a comma-separated list of
// key=value fields:
//
//	name=slowvol,kind=latency,space=vol.*,target=0.995,threshold=10ms,
//	page=14@15s/2m,warn=3@1m/10m,hold=2,min=32
//
// Window values are "<burn>@<fast>/<slow>" with Go durations in modeled
// time. Spec names must be unique across the whole string.
func ParseSpecs(input string) ([]Spec, error) {
	return rule.Parse("slo", input, DefaultSpecs, parseClause)
}

func parseClause(clause string) (Spec, error) {
	var sp Spec
	err := rule.Fields(clause, func(key, val string) (err error) {
		switch key {
		case "name":
			sp.Name = val
		case "kind":
			sp.Kind = Kind(val)
		case "space":
			sp.Space = val
		case "target":
			sp.Target, err = strconv.ParseFloat(val, 64)
		case "threshold":
			sp.Threshold, err = time.ParseDuration(val)
		case "page":
			sp.Page, err = parseWindow(val)
		case "warn":
			sp.Warn, err = parseWindow(val)
		case "hold":
			sp.Hold, err = strconv.Atoi(val)
		case "min":
			sp.MinEvents, err = strconv.ParseUint(val, 10, 64)
		case "bad":
			sp.Bad = val
		case "total":
			sp.Total = val
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		return err
	})
	if err != nil {
		return sp, err
	}
	sp.normalize()
	return sp, sp.validate()
}

func parseWindow(v string) (Window, error) {
	var w Window
	burnStr, rest, ok := strings.Cut(v, "@")
	if !ok {
		return w, fmt.Errorf("window %q is not burn@fast/slow", v)
	}
	burn, err := strconv.ParseFloat(burnStr, 64)
	if err != nil {
		return w, err
	}
	fastStr, slowStr, ok := strings.Cut(rest, "/")
	if !ok {
		return w, fmt.Errorf("window %q is not burn@fast/slow", v)
	}
	fast, err := time.ParseDuration(fastStr)
	if err != nil {
		return w, err
	}
	slow, err := time.ParseDuration(slowStr)
	if err != nil {
		return w, err
	}
	w = Window{Burn: burn, Fast: fast, Slow: slow}
	return w, nil
}

func (w Window) format() string {
	return strconv.FormatFloat(w.Burn, 'g', -1, 64) + "@" + w.Fast.String() + "/" + w.Slow.String()
}

// String renders the spec in the canonical parseable form.
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s,kind=%s", s.Name, s.Kind)
	if s.Space != "" {
		fmt.Fprintf(&b, ",space=%s", s.Space)
	}
	fmt.Fprintf(&b, ",target=%s", strconv.FormatFloat(s.Target, 'g', -1, 64))
	if s.Threshold != 0 {
		fmt.Fprintf(&b, ",threshold=%s", s.Threshold)
	}
	if s.Bad != "" {
		fmt.Fprintf(&b, ",bad=%s,total=%s", s.Bad, s.Total)
	}
	fmt.Fprintf(&b, ",page=%s,warn=%s,hold=%d,min=%d",
		s.Page.format(), s.Warn.format(), s.Hold, s.MinEvents)
	return b.String()
}

// RuleName is the name a portfolio must hold uniquely.
func (s Spec) RuleName() string { return s.Name }

// FormatSpecs renders specs in the canonical form accepted by ParseSpecs.
func FormatSpecs(specs []Spec) string { return rule.Format(specs) }
