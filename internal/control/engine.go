package control

import (
	"math"
	"strings"
	"time"

	"waflfs/internal/obs/rule"
	"waflfs/internal/obs/tsdb"
)

// State is the actuation level of one policy instance, mirroring the SLO
// engine's ok→warn→page machine: a breach arms the instance immediately,
// Hold consecutive breaches fire the knob (acted), and Hold consecutive
// calm evaluations step back down one level — so a signal oscillating
// around its threshold cannot flap the knob every CP.
type State = rule.State[stateNames]

const (
	StateOK State = iota
	StateArmed
	StateActed
)

type stateNames struct{}

func (stateNames) Names() [3]string { return [3]string{"ok", "armed", "acted"} }

// KnobSpec is an Actuator's metadata for one knob: hard clamps and the
// largest absolute change one actuation may apply. Policy min/max narrow
// the clamps further; they can never widen them.
type KnobSpec struct {
	Name    string  `json:"name"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	MaxStep float64 `json:"max_step"` // 0 = unlimited
}

// Actuator is the bounded surface the controller may touch. wafl's System
// implements it over the runtime allocator/CP knobs. Knob values are
// integral in practice; SetKnob receives a pre-rounded, pre-clamped value
// and returns what was actually applied (ok=false rejects the actuation).
type Actuator interface {
	Knobs() []KnobSpec
	Knob(name string) (float64, bool)
	SetKnob(name string, v float64) (float64, bool)
}

// Transition is one state-machine edge, stamped with the modeled clock. The
// controller links its actuation records, not its transitions, to exemplar
// traces, so the exemplar fields stay zero and out of /debug/control.
type Transition = rule.Transition[State]

// ActuationRecord is the full provenance of one actuation decision —
// fired or suppressed — kept in a bounded per-engine ring.
type ActuationRecord struct {
	CP       uint64        `json:"cp"`
	At       time.Duration `json:"at_ns"`
	Policy   string        `json:"policy"` // canonical clause
	Instance string        `json:"instance"`
	Signal   string        `json:"signal"` // full series name read
	Value    float64       `json:"value"`  // signal value at decision time
	Knob     string        `json:"knob"`
	Old      float64       `json:"old"`
	New      float64       `json:"new"`
	Fired    bool          `json:"fired"`
	// Reason is "applied" for fired records; suppressed records carry why
	// the knob did not move ("clamped", "no_knob", "rejected").
	Reason string `json:"reason"`
	// ExemplarTrace/ExemplarLatNS reference a representative sampled op
	// trace from the signal's volume at decision time, when an
	// ExemplarSource is wired; 0 otherwise.
	ExemplarTrace uint64 `json:"exemplar_trace,omitempty"`
	ExemplarLatNS uint64 `json:"exemplar_lat_ns,omitempty"`
}

// flapWindow is how many trailing transitions of one instance must
// alternate armed↔acted (with no ok between) to flag it as flapping.
const flapWindow = 4

// instance is one live rule: a policy bound to a concrete signal series.
type instance struct {
	// Name is the policy name, plus ".<captures>" for wildcard signals; Space
	// the "vol.<name>" extractable from the signal, if any. Streak counts
	// consecutive breach evals since the last fire/calm, Calm consecutive
	// calm evals toward the next downgrade.
	rule.Inst[State]
	pol       *Policy
	series    string // full series name under "<sys>."
	lastValue float64
}

// Engine evaluates a policy portfolio for one system (arm) against its
// tsdb store and actuator, on the shared rule scaffold. All methods are
// nil-safe; evaluation is deterministic given the store contents and the knob
// trajectory, which the engine itself drives — so the actuation stream is
// byte-identical at any worker width.
type Engine struct {
	rule.Core[State, *instance]
	act  Actuator
	pols []Policy

	acts, suppr uint64
	records     rule.Ring[ActuationRecord]
	// knobCache is the knob values as of the last Evaluate. Status reads
	// it instead of the live actuator so HTTP handlers never race the CP
	// thread's knob mutations.
	knobCache []KnobStatus
}

// NewEngine builds an engine for one system. Returns nil when there is
// nothing to do (no policies or no store), which every method tolerates; an
// engine without an actuator evaluates nothing until setActuator binds one.
func NewEngine(sys string, pols []Policy, store *tsdb.Store, act Actuator) *Engine {
	if len(pols) == 0 || store == nil {
		return nil
	}
	e := &Engine{act: act, pols: rule.Normalized(pols, (*Policy).normalize)}
	e.Init(sys, store)
	return e
}

// setActuator binds the knob surface — again when a system is re-armed
// (fresh System, same store), so instance state survives while actuation
// lands on the live knobs.
func (e *Engine) setActuator(act Actuator) {
	if e == nil {
		return
	}
	e.Mu.Lock()
	e.act = act
	e.Mu.Unlock()
}

// matchSignal matches a policy signal pattern against a series suffix
// segment-wise: '*' matches exactly one dot-segment. Returns the wildcard
// captures when the suffix matches.
func matchSignal(pattern, suffix string) ([]string, bool) {
	ps := strings.Split(pattern, ".")
	ss := strings.Split(suffix, ".")
	if len(ps) != len(ss) {
		return nil, false
	}
	var caps []string
	for i, p := range ps {
		if p == "*" {
			caps = append(caps, ss[i])
			continue
		}
		if p != ss[i] {
			return nil, false
		}
	}
	return caps, true
}

// spaceOf extracts the "vol.<name>" space from a series suffix, if any,
// for the exemplar join.
func spaceOf(suffix string) string {
	segs := strings.Split(suffix, ".")
	for i, s := range segs {
		if s == "vol" && i+1 < len(segs) {
			return "vol." + segs[i+1]
		}
	}
	return ""
}

// expand resolves signal patterns against the store's current series list.
func (e *Engine) expand() []*instance {
	var out []*instance
	sysPrefix := e.Sys + "."
	names := e.Store.SeriesWithPrefix(sysPrefix)
	for i := range e.pols {
		pol := &e.pols[i]
		for _, series := range names {
			suffix := series[len(sysPrefix):]
			caps, ok := matchSignal(pol.Signal, suffix)
			if !ok {
				continue
			}
			in := &instance{pol: pol, series: series}
			in.Name, in.Space = pol.Name, spaceOf(suffix)
			if len(caps) > 0 {
				in.Name += "." + strings.Join(caps, ".")
			}
			out = append(out, in)
		}
	}
	return out
}

// Evaluate runs every policy instance against the signal values at (cp,
// at), actuates where the hysteresis allows, and writes the resulting
// state/signal series (plus one series per knob) back into the store
// under "<sys>.control.*". Call once per CP, after the store's Sample and
// the SLO engine's Evaluate for the same CP — the alert-state series the
// default portfolio reads are then current.
func (e *Engine) Evaluate(cp uint64, at time.Duration) {
	if e == nil {
		return
	}
	e.Mu.Lock()
	defer e.Mu.Unlock()
	if e.act == nil {
		return
	}
	if e.Stale() {
		e.Adopt(e.expand())
	}
	for _, in := range e.Insts {
		e.evalInstance(in, cp, at)
	}
	e.knobCache = e.knobCache[:0]
	for _, k := range e.act.Knobs() {
		if v, ok := e.act.Knob(k.Name); ok {
			e.Store.Observe(e.Sys+".control.knob."+k.Name, cp, at, v)
			e.knobCache = append(e.knobCache, KnobStatus{KnobSpec: k, Value: v})
		}
	}
}

func (e *Engine) evalInstance(in *instance, cp uint64, at time.Duration) {
	e.Evals++
	v, _ := e.Store.ValueAt(in.series, cp)
	in.lastValue = v
	breach := (in.pol.Op == ">" && v > in.pol.Value) ||
		(in.pol.Op == "<" && v < in.pol.Value)
	if breach {
		in.Calm = 0
		in.Streak++
		if in.State == StateOK {
			e.Transit(in, cp, at, StateArmed)
		}
		if in.Streak >= in.pol.Hold {
			// The hold streak resets on every attempt, fired or suppressed,
			// so re-fires are rate-limited to one per Hold breaches — the
			// temporal half of the step-size limit.
			e.actuate(in, cp, at, v)
			in.Streak = 0
		}
	} else {
		in.Streak = 0
		if in.State != StateOK {
			in.Calm++
			if in.Calm >= in.pol.Hold {
				e.Transit(in, cp, at, in.State-1)
				in.Calm = 0
			}
		} else {
			in.Calm = 0
		}
	}
	base := e.Sys + ".control." + in.Name
	e.Store.Observe(base+".state", cp, at, float64(in.State))
	e.Store.Observe(base+".signal", cp, at, v)
}

func (e *Engine) knobSpec(name string) (KnobSpec, bool) {
	for _, k := range e.act.Knobs() {
		if k.Name == name {
			return k, true
		}
	}
	return KnobSpec{}, false
}

// actuate attempts one knob step: the policy step is clamped by the
// knob's MaxStep, then by the intersection of the knob's hard bounds and
// the policy's min/max, then rounded (knobs are integral). A target equal
// to the current value is a suppressed decision; both outcomes emit an
// ActuationRecord.
func (e *Engine) actuate(in *instance, cp uint64, at time.Duration, v float64) {
	rec := ActuationRecord{
		CP: cp, At: at, Policy: in.pol.String(), Instance: in.Name,
		Signal: in.series, Value: v, Knob: in.pol.Action,
	}
	rec.ExemplarTrace, rec.ExemplarLatNS = e.Exemplar(in.Space)
	old, ok := e.act.Knob(in.pol.Action)
	if !ok {
		rec.Reason = "no_knob"
		e.suppress(rec)
		return
	}
	rec.Old, rec.New = old, old
	k, _ := e.knobSpec(in.pol.Action)
	target := in.pol.Step.apply(old)
	if k.MaxStep > 0 && math.Abs(target-old) > k.MaxStep {
		if target > old {
			target = old + k.MaxStep
		} else {
			target = old - k.MaxStep
		}
	}
	lo, hi := k.Min, k.Max
	if in.pol.Min != 0 && in.pol.Min > lo {
		lo = in.pol.Min
	}
	if in.pol.Max != 0 && in.pol.Max < hi {
		hi = in.pol.Max
	}
	if target < lo {
		target = lo
	}
	if target > hi {
		target = hi
	}
	target = math.Round(target)
	if target == old {
		rec.Reason = "clamped"
		e.suppress(rec)
		return
	}
	applied, ok := e.act.SetKnob(in.pol.Action, target)
	if !ok {
		rec.Reason = "rejected"
		e.suppress(rec)
		return
	}
	rec.New, rec.Fired, rec.Reason = applied, true, "applied"
	e.acts++
	e.records.Push(rec)
	if in.State != StateActed {
		e.Transit(in, cp, at, StateActed)
	}
}

func (e *Engine) suppress(rec ActuationRecord) {
	e.suppr++
	e.records.Push(rec)
}

// flapping reports whether an instance's trailing transitions alternate
// armed↔acted with no ok between — the signature of a knob-chasing
// oscillation the hysteresis failed to damp (wafltop -snapshot exits
// nonzero on it).
func flapping(log []Transition, name string) bool {
	var tos []State
	for _, tr := range log {
		if tr.Instance == name {
			tos = append(tos, tr.To)
		}
	}
	if len(tos) < flapWindow {
		return false
	}
	tos = tos[len(tos)-flapWindow:]
	for i, to := range tos {
		if to == StateOK {
			return false
		}
		if i > 0 && to == tos[i-1] {
			return false
		}
	}
	return true
}

// core is the scaffold of a possibly nil engine: Go promotes the embedded
// methods, but not their nil-safety, so the exported accessors go through it.
func (e *Engine) core() *rule.Core[State, *instance] {
	if e == nil {
		return nil
	}
	return &e.Core
}

// SetExemplarSource wires a trace exemplar source: subsequent actuation
// records on volume-scoped signals carry a representative trace ID.
// Nil-safe.
func (e *Engine) SetExemplarSource(src rule.ExemplarSource) { e.core().SetExemplarSource(src) }

// Counter accessors feed the control.* registry metrics; all nil-safe.

func (e *Engine) Evaluations() uint64 { return e.core().Read(func() uint64 { return e.Evals }) }
func (e *Engine) Actuations() uint64  { return e.core().Read(func() uint64 { return e.acts }) }
func (e *Engine) Suppressed() uint64  { return e.core().Read(func() uint64 { return e.suppr }) }
func (e *Engine) Transitions() uint64 { return e.core().Read(func() uint64 { return e.Trans }) }

// InstanceStatus is the reported state of one policy instance.
type InstanceStatus struct {
	Name     string  `json:"name"`
	Policy   string  `json:"policy"`
	Signal   string  `json:"signal"`
	State    string  `json:"state"`
	SinceCP  uint64  `json:"since_cp"`
	Value    float64 `json:"value"`
	Streak   int     `json:"streak"`
	Flapping bool    `json:"flapping"`
}

// KnobStatus is one knob's current value and bounds.
type KnobStatus struct {
	KnobSpec
	Value float64 `json:"value"`
}

// SystemStatus is one engine's full report.
type SystemStatus struct {
	System      string            `json:"system"`
	Evaluations uint64            `json:"evaluations"`
	Actuations  uint64            `json:"actuations"`
	Suppressed  uint64            `json:"suppressed"`
	Knobs       []KnobStatus      `json:"knobs"`
	Instances   []InstanceStatus  `json:"instances"`
	Records     []ActuationRecord `json:"records,omitempty"`
	Transitions []Transition      `json:"transitions,omitempty"`
}

// Status snapshots the engine; instance and knob order is deterministic.
func (e *Engine) Status() SystemStatus {
	if e == nil {
		return SystemStatus{}
	}
	e.Mu.Lock()
	defer e.Mu.Unlock()
	st := SystemStatus{
		System:      e.Sys,
		Evaluations: e.Evals,
		Actuations:  e.acts,
		Suppressed:  e.suppr,
		Records:     e.records.Snapshot(),
		Transitions: e.TransitionLog(),
	}
	st.Knobs = append(st.Knobs, e.knobCache...)
	for _, in := range e.Insts {
		st.Instances = append(st.Instances, InstanceStatus{
			Name: in.Name, Policy: in.pol.Name, Signal: in.series,
			State: in.State.String(), SinceCP: in.SinceCP,
			Value: in.lastValue, Streak: in.Streak,
			Flapping: flapping(st.Transitions, in.Name),
		})
	}
	return st
}
