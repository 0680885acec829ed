package wafl

import (
	"waflfs/internal/control"
)

// Actuator is the bounded knob surface the closed-loop controller may
// touch. wafl re-exports the control-package contract so callers can wire
// a System's actuator without importing internal/control directly.
type Actuator = control.Actuator

// KnobSpec re-exports the per-knob metadata type.
type KnobSpec = control.KnobSpec

// Hard per-knob clamps. Policies may narrow these but never widen them;
// MaxStep bounds how far one actuation can move a knob regardless of the
// policy's step.
var knobSpecs = []KnobSpec{
	{Name: control.KnobAllocBatch, Min: 1, Max: 1024, MaxStep: 64},
	{Name: control.KnobDelayedBudget, Min: 0, Max: 1 << 20, MaxStep: 1 << 16},
	{Name: control.KnobFragEvery, Min: 1, Max: 1024, MaxStep: 16},
	{Name: control.KnobScrubKick, Min: 0, Max: 1 << 20, MaxStep: 1},
}

// sysActuator implements Actuator over a System's runtime knobs. All
// methods run on the CP thread (the controller evaluates in the CP tail),
// so the plain field mutations are race-free; HTTP-facing status reads go
// through the engine's knob cache, never this object.
type sysActuator struct {
	s *System
	// kicks counts scrub impulses applied so far — the scrub_kick knob's
	// "value", so each +1 step runs exactly one on-demand Scrub.
	kicks uint64
}

// Actuator returns the system's knob surface for the closed-loop
// controller. The same surface is handed to the control engine when
// ObsOptions.Control is armed; it is exposed publicly so tests and
// embedders can drive knobs directly.
func (s *System) Actuator() Actuator { return &s.act }

func (a *sysActuator) Knobs() []KnobSpec {
	return append([]KnobSpec(nil), knobSpecs...)
}

func (a *sysActuator) Knob(name string) (float64, bool) {
	s := a.s
	switch name {
	case control.KnobDelayedBudget:
		return float64(s.tun.DelayedFreeBudgetPerCP), true
	case control.KnobAllocBatch:
		return float64(s.tun.allocBatch()), true
	case control.KnobFragEvery:
		fe := s.Agg.obsOpts.FragEvery
		if fe < 1 {
			fe = 1
		}
		return float64(fe), true
	case control.KnobScrubKick:
		return float64(a.kicks), true
	}
	return 0, false
}

func (a *sysActuator) SetKnob(name string, v float64) (float64, bool) {
	s := a.s
	switch name {
	case control.KnobDelayedBudget:
		b := int(v)
		if b < 0 {
			return 0, false
		}
		// The reclaim stage reads s.tun at both depths; the aggregate copy
		// is kept coherent for anything constructed later from it.
		s.tun.DelayedFreeBudgetPerCP = b
		s.Agg.tun.DelayedFreeBudgetPerCP = b
		return float64(b), true
	case control.KnobAllocBatch:
		b := int(v)
		if b < 1 {
			return 0, false
		}
		// The pick queues own the batch size: each stages batches of b from
		// its next Stage on (inert at depth 0, where nothing is staged).
		s.tun.AllocBatch = b
		s.Agg.tun.AllocBatch = b
		for _, g := range s.Agg.groups {
			g.q.SetBatch(b)
		}
		for _, sp := range s.Agg.agnosticSpaces() {
			sp.q.SetBatch(b)
		}
		return float64(b), true
	case control.KnobFragEvery:
		fe := int(v)
		if fe < 1 {
			return 0, false
		}
		s.Agg.obsOpts.FragEvery = fe
		return float64(fe), true
	case control.KnobScrubKick:
		k := uint64(v)
		if k <= a.kicks {
			return float64(a.kicks), false
		}
		// One scrub per impulse; the report folds into scrub.* counters
		// like any on-demand Scrub.
		for a.kicks < k {
			s.Agg.Scrub()
			a.kicks++
		}
		return float64(a.kicks), true
	}
	return 0, false
}
