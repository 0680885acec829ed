package rule

import (
	"encoding/json"
	"io"

	"waflfs/internal/obs/tsdb"
)

// Engine is what a Set needs of a kind's engine: fold its activity into the
// kind's totals, and report its status document.
type Engine[T, S any] interface {
	AddTo(*T)
	Status() S
}

// Set holds one rule portfolio and the engines it has spawned, one per
// system (arm). It is shared across every arm of an experiment run so
// artifact gates can split totals by arm-name prefix. R is the rule type, E
// the kind's engine, T its totals and S its per-system status. All methods
// are nil-safe.
type Set[R any, E Engine[T, S], T, S any] struct {
	rules   []R
	create  func(sys string, rules []R, store *tsdb.Store) E
	engines Keyed[bound[E]]
}

// bound is an engine and the store it reads.
type bound[E any] struct {
	engine E
	store  *tsdb.Store
}

// NewSet builds a set over a normalized portfolio; create builds the kind's
// engine for one system. An empty portfolio yields the nil set.
func NewSet[R any, E Engine[T, S], T, S any](rules []R, create func(sys string, rules []R, store *tsdb.Store) E) *Set[R, E, T, S] {
	if len(rules) == 0 {
		return nil
	}
	return &Set[R, E, T, S]{rules: rules, create: create}
}

// Engine returns the engine for sys, creating one bound to the given store on
// first use. A later call with the same sys and store returns the engine
// already held (systems are re-armed on remount with a fresh registry but the
// same store, so instance state and the logs survive); a different store
// replaces it.
func (s *Set[R, E, T, S]) Engine(sys string, store *tsdb.Store) (e E) {
	if s == nil || store == nil {
		return e
	}
	return s.engines.Ensure(sys,
		func(b bound[E]) bool { return b.store == store },
		func() bound[E] { return bound[E]{s.create(sys, s.rules, store), store} }).engine
}

// Totals sums activity over every system in the set.
func (s *Set[R, E, T, S]) Totals() T {
	return s.TotalsWhere(func(string) bool { return true })
}

// TotalsWhere sums activity over systems whose name passes the filter — the
// artifact gate uses this to split crash arms from clean.
func (s *Set[R, E, T, S]) TotalsWhere(match func(sys string) bool) (t T) {
	if s == nil {
		return t
	}
	s.engines.Each(func(sys string, b bound[E]) {
		if match(sys) {
			b.engine.AddTo(&t)
		}
	})
	return t
}

// Status reports every engine, sorted by system name.
func (s *Set[R, E, T, S]) Status() []S {
	if s == nil {
		return nil
	}
	out := []S{}
	s.engines.Each(func(_ string, b bound[E]) { out = append(out, b.engine.Status()) })
	return out
}

// WriteJSON writes the full status document — the /debug/slo and
// /debug/control shape: totals plus every system's status. Byte-identical
// for identical evaluation histories, so the serial-equivalence tests compare
// it directly across worker widths.
func (s *Set[R, E, T, S]) WriteJSON(w io.Writer) error {
	doc := struct {
		Totals  T   `json:"totals"`
		Systems []S `json:"systems"`
	}{s.Totals(), s.Status()}
	if doc.Systems == nil {
		doc.Systems = []S{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
