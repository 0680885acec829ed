package slo

import "waflfs/internal/obs/rule"

// Set holds one spec portfolio and the engines it has spawned, one per
// system (arm); see rule.Set. /debug/slo serves its WriteJSON.
type Set = rule.Set[Spec, *Engine, Totals, SystemStatus]

// NewSet builds a set from a portfolio; a copy of it is normalized. An empty
// portfolio yields the nil set.
func NewSet(specs []Spec) *Set {
	return rule.NewSet[Spec, *Engine, Totals, SystemStatus](rule.Normalized(specs, (*Spec).normalize), NewEngine)
}

// Totals aggregates alert activity across engines.
type Totals struct {
	Systems     int    `json:"systems"`
	Instances   int    `json:"instances"`
	Evaluations uint64 `json:"evaluations"`
	Transitions uint64 `json:"transitions"`
	Warns       uint64 `json:"warns"`
	Pages       uint64 `json:"pages"`
	ActiveWarns int    `json:"active_warns"`
	ActivePages int    `json:"active_pages"`
}

// AddTo folds the engine's activity into t.
func (e *Engine) AddTo(t *Totals) {
	e.Mu.Lock()
	defer e.Mu.Unlock()
	t.Systems++
	t.Instances += len(e.Insts)
	t.Evaluations += e.Evals
	t.Transitions += e.Trans
	t.Warns += e.warns
	t.Pages += e.pages
	t.ActiveWarns += e.CountAt(StateWarn)
	t.ActivePages += e.CountAt(StatePage)
}
