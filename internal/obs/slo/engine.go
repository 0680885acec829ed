package slo

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"waflfs/internal/obs"
	"waflfs/internal/obs/rule"
	"waflfs/internal/obs/tsdb"
)

// State is the alert level of one SLO instance.
type State = rule.State[stateNames]

const (
	StateOK State = iota
	StateWarn
	StatePage
)

type stateNames struct{}

func (stateNames) Names() [3]string { return [3]string{"ok", "warn", "page"} }

// Transition is one state-machine edge; on a space-scoped instance it links
// to a representative sampled op trace (the space's worst-bucket exemplar at
// transition time) when an exemplar source is wired, so a page in /debug/slo
// leads directly to a trace in /debug/optrace.
type Transition = rule.Transition[State]

// mark records one past evaluation point: windows are anchored to the
// newest mark at least a window-width of modeled time in the past, so a
// "30s window" means "since the CP boundary nearest 30s of modeled time
// ago" — exact at CP granularity, never interpolated.
type mark struct {
	cp uint64
	at time.Duration
}

// instance is one live alert: a spec bound to concrete series names
// (latency and stall specs fan out to one instance per matching space).
type instance struct {
	// Name is the spec name, plus ".<space>" for fanned-out kinds; Calm
	// counts consecutive evals desiring a lower state (Streak is unused:
	// upgrades are immediate).
	rule.Inst[State]
	spec *Spec

	totalSeries string
	badSeries   string // direct bad counter; empty for latency
	leSeries    string // latency: cumulative bucket at the snapped threshold
	latBase     string // latency: "<sys>.<space>.lat_ns"
	bounds      []uint64

	burnFast, burnSlow float64
	budgetUsed         float64
	winBad, winTotal   float64
	pNs                float64
}

// Engine evaluates a spec portfolio for one system (arm) against its tsdb
// store, on the shared rule scaffold. All methods are nil-safe; evaluation is
// deterministic given the store contents, which are themselves derived from
// stable snapshots on the modeled clock.
type Engine struct {
	rule.Core[State, *instance]
	specs []Spec

	maxWin time.Duration
	marks  []mark

	warns, pages uint64
}

// NewEngine builds an engine for one system. Returns nil when there is
// nothing to do (no specs or no store), which every method tolerates.
func NewEngine(sys string, specs []Spec, store *tsdb.Store) *Engine {
	if len(specs) == 0 || store == nil {
		return nil
	}
	e := &Engine{specs: rule.Normalized(specs, (*Spec).normalize)}
	e.Init(sys, store)
	for _, sp := range e.specs {
		e.maxWin = max(e.maxWin, sp.Page.Slow, sp.Warn.Slow)
	}
	return e
}

func matchSpace(pattern, space string) bool {
	if pattern == "*" || pattern == space {
		return true
	}
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(space, p)
	}
	return false
}

// expand resolves the portfolio against the store's current series list:
// one instance per system-level spec, one per matching space for the kinds
// that fan out.
func (e *Engine) expand() []*instance {
	var out []*instance
	sysPrefix := e.Sys + "."
	add := func(sp *Spec, space string) *instance {
		in := &instance{spec: sp}
		in.Name, in.Space = sp.Name, space
		if space != "" {
			in.Name += "." + space
		}
		out = append(out, in)
		return in
	}
	counters := func(sp *Spec, bad, total string) {
		in := add(sp, "")
		in.badSeries, in.totalSeries = sysPrefix+bad, sysPrefix+total
	}
	for i := range e.specs {
		sp := &e.specs[i]
		switch sp.Kind {
		case Watchdog:
			counters(sp, "watchdog.violations", "watchdog.checks")
		case Recovery:
			counters(sp, "mount.fallbacks", "mount.count")
		case Fallback:
			counters(sp, "picks.bitmap_fallback", "picks.recorded")
		case Ratio:
			counters(sp, sp.Bad, sp.Total)
		case Stall:
			for _, space := range e.spaces(".alloc.picks", sp.Space) {
				in := add(sp, space)
				in.badSeries = sysPrefix + space + ".alloc.refill_stalls"
				in.totalSeries = sysPrefix + space + ".alloc.picks"
			}
		case Latency:
			for _, space := range e.spaces(".lat_ns.count", sp.Space) {
				base := sysPrefix + space + ".lat_ns"
				bounds := e.bucketBounds(base)
				if len(bounds) == 0 {
					continue // histogram sampled without bucket series
				}
				// Snap the threshold up to the nearest bucket bound; ops in
				// the snapped bucket count as good, so the SLI is a slight
				// under-count of true threshold exceedances.
				snap := bounds[len(bounds)-1]
				for _, b := range bounds {
					if b >= uint64(sp.Threshold) {
						snap = b
						break
					}
				}
				in := add(sp, space)
				in.totalSeries = base + ".count"
				in.leSeries = base + ".le_" + strconv.FormatUint(snap, 10)
				in.latBase, in.bounds = base, bounds
			}
		}
	}
	return out
}

// spaces lists store spaces owning a series named <sys>.<space><suffix>
// and matching the spec's space pattern, sorted.
func (e *Engine) spaces(suffix, pattern string) []string {
	var out []string
	for _, name := range e.Store.SeriesWithPrefix(e.Sys + ".") {
		mid, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		space := strings.TrimPrefix(mid, e.Sys+".")
		if validSpace(space) && matchSpace(pattern, space) {
			out = append(out, space)
		}
	}
	return out
}

// validSpace reports whether a candidate space extracted from a series name
// has the canonical registry shape: "rg<N>", "pool", or "vol.<name>" with a
// dot-free volume name. System names may nest as string prefixes of each
// other in a shared store ("ablate.bias0" prefixes "ablate.bias0.05"), so a
// sibling system's series would otherwise parse as a pseudo-space like
// "05.rg0" whenever the two systems' series coexist — which depends on arm
// interleaving. Shape-checking keeps the expanded instance set a function
// of this system's series alone.
func validSpace(space string) bool {
	if space == "pool" {
		return true
	}
	if rest, ok := strings.CutPrefix(space, "rg"); ok {
		if rest == "" {
			return false
		}
		for _, c := range rest {
			if c < '0' || c > '9' {
				return false
			}
		}
		return true
	}
	if rest, ok := strings.CutPrefix(space, "vol."); ok {
		return rest != "" && !strings.Contains(rest, ".")
	}
	return false
}

// bucketBounds discovers the finite histogram bounds for which the store
// keeps cumulative le_ counter series, ascending.
func (e *Engine) bucketBounds(latBase string) []uint64 {
	prefix := latBase + ".le_"
	var bounds []uint64
	for _, name := range e.Store.SeriesWithPrefix(prefix) {
		b, err := strconv.ParseUint(name[len(prefix):], 10, 64)
		if err != nil {
			continue
		}
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return bounds
}

// Evaluate runs every instance against the trailing windows ending at
// (cp, at) and writes the resulting state/burn series back into the store
// under "<sys>.slo.<instance>.*". Call once per CP, after the store's
// Sample for the same CP.
func (e *Engine) Evaluate(cp uint64, at time.Duration) {
	if e == nil {
		return
	}
	e.Mu.Lock()
	defer e.Mu.Unlock()
	if e.Stale() {
		e.Adopt(e.expand())
	}
	for _, in := range e.Insts {
		e.evalInstance(in, cp, at)
	}
	e.marks = append(e.marks, mark{cp: cp, at: at})
	e.prune(at)
}

// baseline returns the CP anchoring a trailing window of width w ending
// at modeled time `at`: the newest past evaluation at least w old, or 0
// (run start) when the run is younger than the window.
func (e *Engine) baseline(at, w time.Duration) uint64 {
	cut := at - w
	var base uint64
	for _, m := range e.marks {
		if m.at > cut {
			break
		}
		base = m.cp
	}
	return base
}

func (e *Engine) prune(at time.Duration) {
	cut := at - e.maxWin
	idx := 0
	for i, m := range e.marks {
		if m.at > cut {
			break
		}
		idx = i
	}
	if idx > 0 {
		e.marks = append(e.marks[:0], e.marks[idx:]...)
	}
}

// badTotal returns the bad/total event deltas for an instance over
// (fromCP, toCP], clamped to 0 ≤ bad ≤ total.
func (e *Engine) badTotal(in *instance, fromCP, toCP uint64) (bad, total float64) {
	total, _ = e.Store.CounterDelta(in.totalSeries, fromCP, toCP)
	if in.leSeries != "" {
		good, _ := e.Store.CounterDelta(in.leSeries, fromCP, toCP)
		bad = total - good
	} else {
		bad, _ = e.Store.CounterDelta(in.badSeries, fromCP, toCP)
	}
	if bad < 0 {
		bad = 0
	}
	if bad > total {
		bad = total
	}
	return bad, total
}

func (e *Engine) evalInstance(in *instance, cp uint64, at time.Duration) {
	e.Evals++
	sp := in.spec
	denom := 1 - sp.Target
	burn := func(bad, total float64) float64 {
		if total <= 0 || denom <= 0 {
			return 0
		}
		return (bad / total) / denom
	}
	rate := func(w time.Duration) (float64, float64) {
		return e.badTotal(in, e.baseline(at, w), cp)
	}

	pfBad, pfTot := rate(sp.Page.Fast)
	psBad, psTot := rate(sp.Page.Slow)
	wfBad, wfTot := rate(sp.Warn.Fast)
	wsBad, wsTot := rate(sp.Warn.Slow)
	in.burnFast, in.burnSlow = burn(pfBad, pfTot), burn(psBad, psTot)
	in.winBad, in.winTotal = psBad, psTot

	allBad, allTot := e.badTotal(in, 0, cp)
	in.budgetUsed = burn(allBad, allTot)

	desired := StateOK
	switch {
	case psTot >= float64(sp.MinEvents) &&
		in.burnFast >= sp.Page.Burn && in.burnSlow >= sp.Page.Burn:
		desired = StatePage
	case wsTot >= float64(sp.MinEvents) &&
		burn(wfBad, wfTot) >= sp.Warn.Burn && burn(wsBad, wsTot) >= sp.Warn.Burn:
		desired = StateWarn
	}

	// Upgrades are immediate; downgrades wait for Hold consecutive calm
	// evaluations so a burn rate oscillating around the threshold cannot
	// flap the alert.
	switch {
	case desired > in.State:
		e.transition(in, cp, at, desired)
		in.Calm = 0
	case desired < in.State:
		in.Calm++
		if in.Calm >= sp.Hold {
			e.transition(in, cp, at, desired)
			in.Calm = 0
		}
	default:
		in.Calm = 0
	}

	base := e.Sys + ".slo." + in.Name
	e.Store.Observe(base+".state", cp, at, float64(in.State))
	e.Store.Observe(base+".burn_fast", cp, at, in.burnFast)
	e.Store.Observe(base+".burn_slow", cp, at, in.burnSlow)
	e.Store.Observe(base+".budget_used", cp, at, in.budgetUsed)
	if in.leSeries != "" {
		in.pNs = e.windowQuantile(in, cp, at)
		e.Store.Observe(base+".p_ns", cp, at, in.pNs)
	}
}

// windowQuantile reconstructs the latency distribution over the page slow
// window from per-bucket counter deltas and reports the target quantile.
func (e *Engine) windowQuantile(in *instance, cp uint64, at time.Duration) float64 {
	from := e.baseline(at, in.spec.Page.Slow)
	hv := obs.HistValue{
		Bounds: in.bounds,
		Counts: make([]uint64, len(in.bounds)+1),
	}
	var prev float64
	for i, b := range in.bounds {
		cum, _ := e.Store.CounterDelta(in.latBase+".le_"+strconv.FormatUint(b, 10), from, cp)
		d := cum - prev
		if d < 0 {
			d = 0
		}
		hv.Counts[i] = uint64(d)
		prev = cum
	}
	total, _ := e.Store.CounterDelta(in.totalSeries, from, cp)
	if inf := total - prev; inf > 0 {
		hv.Counts[len(in.bounds)] = uint64(inf)
	}
	for _, c := range hv.Counts {
		hv.Count += c
	}
	return hv.Quantile(in.spec.Target)
}

func (e *Engine) transition(in *instance, cp uint64, at time.Duration, to State) {
	tr := e.Transit(in, cp, at, to)
	tr.ExemplarTrace, tr.ExemplarLatNS = e.Exemplar(in.Space)
	switch to {
	case StateWarn:
		e.warns++
	case StatePage:
		e.pages++
	}
}

// core is the scaffold of a possibly nil engine: Go promotes the embedded
// methods, but not their nil-safety, so the exported accessors go through it.
func (e *Engine) core() *rule.Core[State, *instance] {
	if e == nil {
		return nil
	}
	return &e.Core
}

// SetExemplarSource wires a trace exemplar source: subsequent transitions
// on space-scoped instances carry a representative trace ID. Nil-safe.
func (e *Engine) SetExemplarSource(src rule.ExemplarSource) { e.core().SetExemplarSource(src) }

// Counter accessors feed the slo.* registry metrics; all nil-safe.

func (e *Engine) Evaluations() uint64 { return e.core().Read(func() uint64 { return e.Evals }) }
func (e *Engine) Warns() uint64       { return e.core().Read(func() uint64 { return e.warns }) }
func (e *Engine) Pages() uint64       { return e.core().Read(func() uint64 { return e.pages }) }
func (e *Engine) Transitions() uint64 { return e.core().Read(func() uint64 { return e.Trans }) }

// InstanceStatus is the reported state of one alert instance.
type InstanceStatus struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	State       string  `json:"state"`
	SinceCP     uint64  `json:"since_cp"`
	Target      float64 `json:"target"`
	BurnFast    float64 `json:"burn_fast"`
	BurnSlow    float64 `json:"burn_slow"`
	BudgetUsed  float64 `json:"budget_used"`
	WindowBad   float64 `json:"window_bad"`
	WindowTotal float64 `json:"window_total"`
	PNs         float64 `json:"p_ns,omitempty"`
}

// SystemStatus is one engine's full report.
type SystemStatus struct {
	System      string           `json:"system"`
	Evaluations uint64           `json:"evaluations"`
	Warns       uint64           `json:"warns"`
	Pages       uint64           `json:"pages"`
	ActiveWarns int              `json:"active_warns"`
	ActivePages int              `json:"active_pages"`
	Instances   []InstanceStatus `json:"instances"`
	Transitions []Transition     `json:"transitions,omitempty"`
}

// Status snapshots the engine; instance order is deterministic.
func (e *Engine) Status() SystemStatus {
	if e == nil {
		return SystemStatus{}
	}
	e.Mu.Lock()
	defer e.Mu.Unlock()
	st := SystemStatus{
		System:      e.Sys,
		Evaluations: e.Evals,
		Warns:       e.warns,
		Pages:       e.pages,
		ActiveWarns: e.CountAt(StateWarn),
		ActivePages: e.CountAt(StatePage),
		Transitions: e.TransitionLog(),
	}
	for _, in := range e.Insts {
		st.Instances = append(st.Instances, InstanceStatus{
			Name: in.Name, Kind: string(in.spec.Kind), State: in.State.String(),
			SinceCP: in.SinceCP, Target: in.spec.Target,
			BurnFast: in.burnFast, BurnSlow: in.burnSlow,
			BudgetUsed: in.budgetUsed,
			WindowBad:  in.winBad, WindowTotal: in.winTotal, PNs: in.pNs,
		})
	}
	return st
}
