package control

import (
	"waflfs/internal/obs/rule"
	"waflfs/internal/obs/tsdb"
)

// Set holds one policy portfolio and the engines it has spawned, one per
// system (arm); see rule.Set. /debug/control serves its WriteJSON. Engines
// are armed through Bind, which supplies the knob surface.
type Set = rule.Set[Policy, *Engine, Totals, SystemStatus]

// NewSet builds a set from a portfolio; a copy of it is normalized. An empty
// portfolio yields the nil set.
func NewSet(pols []Policy) *Set {
	return rule.NewSet[Policy, *Engine, Totals, SystemStatus](rule.Normalized(pols, (*Policy).normalize),
		func(sys string, pols []Policy, store *tsdb.Store) *Engine { return NewEngine(sys, pols, store, nil) })
}

// Bind returns the set's engine for sys (see rule.Set.Engine) with act bound
// as its knob surface: a system re-armed on remount comes with a fresh knob
// surface but the same store, so the engine — instance state and decision
// log — survives and actuation lands on the live knobs. Nil-safe; no
// actuator, no engine.
func Bind(s *Set, sys string, store *tsdb.Store, act Actuator) *Engine {
	if act == nil {
		return nil
	}
	e := s.Engine(sys, store)
	e.setActuator(act)
	return e
}

// Totals aggregates actuation activity across engines.
type Totals struct {
	Systems     int    `json:"systems"`
	Instances   int    `json:"instances"`
	Evaluations uint64 `json:"evaluations"`
	Actuations  uint64 `json:"actuations"`
	Suppressed  uint64 `json:"suppressed"`
	Transitions uint64 `json:"transitions"`
	ActiveArmed int    `json:"active_armed"`
	ActiveActed int    `json:"active_acted"`
}

// AddTo folds the engine's activity into t.
func (e *Engine) AddTo(t *Totals) {
	e.Mu.Lock()
	defer e.Mu.Unlock()
	t.Systems++
	t.Instances += len(e.Insts)
	t.Evaluations += e.Evals
	t.Actuations += e.acts
	t.Suppressed += e.suppr
	t.Transitions += e.Trans
	t.ActiveArmed += e.CountAt(StateArmed)
	t.ActiveActed += e.CountAt(StateActed)
}
