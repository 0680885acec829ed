// Package rule is the one rule pipeline under the SLO engine
// (internal/obs/slo) and the closed-loop controller (internal/control), and
// the one clause grammar behind every spec string the CLIs take (-slo,
// -control, -optrace, -faults): the grammar (this file), the portfolio Set
// with its name-keyed registry (set.go, keyed.go), and the engine scaffold
// (engine.go). A rule kind supplies its fields with their validation and
// per-key switch, how a rule expands into instances, what evaluating one
// instance does, and its document shapes; nothing here branches on the kind.
// DESIGN.md §15 has the grammar and the reasoning.
package rule

import (
	"fmt"
	"math"
	"strings"
)

func valid(s string, wildcard bool) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '.', r == '-':
		case r == '*' && wildcard:
		default:
			return false
		}
	}
	return true
}

// ValidName reports whether s can name a rule or a series suffix: non-empty,
// drawn from [A-Za-z0-9_.-], so none of the grammar's separators.
func ValidName(s string) bool { return valid(s, false) }

// ValidPattern is ValidName plus the '*' wildcard.
func ValidPattern(s string) bool { return valid(s, true) }

// Finite reports whether v is neither NaN nor ±Inf. NaN compares false with
// everything, so a rule holding one validates, never fires, and does not
// survive its own canonical round trip.
func Finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Fields splits one clause into its comma-separated key=value fields and
// hands each, trimmed around key and value, to set. Blank fields are skipped
// (a trailing comma is harmless); a field without '=', a key repeated within
// the clause, or an error from set — whose switch rejects the keys it does
// not know — ends the parse.
func Fields(clause string, set func(key, val string) error) error {
	seen := map[string]bool{}
	for _, field := range strings.Split(clause, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return fmt.Errorf("field %q repeats key %q", field, key)
		}
		seen[key] = true
		if err := set(key, val); err != nil {
			return fmt.Errorf("field %q: %w", field, err)
		}
	}
	return nil
}

// Rule is a portfolio entry: the name it must hold uniquely and its canonical
// clause.
type Rule interface {
	fmt.Stringer
	RuleName() string
}

// Parse parses a portfolio: clauses separated by ';', each the literal
// "default" (expanding the kind's stock portfolio in place) or one rule for
// clause to parse. Blank clauses are skipped; an empty portfolio and a rule
// name used twice are errors, prefixed with pkg.
func Parse[R Rule](pkg, input string, defaults func() []R, clause func(string) (R, error)) ([]R, error) {
	var out []R
	for _, c := range strings.Split(input, ";") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if c == "default" {
			out = append(out, defaults()...)
			continue
		}
		r, err := clause(c)
		if err != nil {
			return nil, fmt.Errorf("%s: clause %q: %w", pkg, c, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: empty portfolio", pkg)
	}
	seen := make(map[string]bool, len(out))
	for _, r := range out {
		if seen[r.RuleName()] {
			return nil, fmt.Errorf("%s: duplicate rule name %q", pkg, r.RuleName())
		}
		seen[r.RuleName()] = true
	}
	return out, nil
}

// Format renders a portfolio in the canonical form Parse accepts.
func Format[R Rule](rules []R) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}

// Normalized returns a copy of a portfolio with the kind's defaults filled
// into every rule's unset optional fields.
func Normalized[R any](rules []R, normalize func(*R)) []R {
	out := append([]R(nil), rules...)
	for i := range out {
		normalize(&out[i])
	}
	return out
}
