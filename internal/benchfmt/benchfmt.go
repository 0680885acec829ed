// Package benchfmt defines the schema-versioned benchmark artifact the
// repo's perf trajectory is recorded in (BENCH_<n>.json), and the
// tolerance-banded comparison cmd/benchdiff gates regressions with.
//
// An artifact is a flat, name-sorted list of scalar metrics plus
// provenance: schema version, seed, scale, worker width, and git revision.
// Flat and sorted keeps the on-disk form diffable, the field order stable
// under re-encoding, and comparison trivial. Each metric may carry its own
// relative tolerance band; the baseline (old) artifact's band wins during
// comparison so tolerances travel with the committed trajectory point.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion is the artifact schema this package reads and writes.
const SchemaVersion = 1

// DefaultTolerance is the relative drift band applied to metrics that do
// not carry their own: |new-old|/|old| beyond this is a violation.
const DefaultTolerance = 0.25

// absEpsilon: old values this close to zero switch the band to absolute
// drift, since relative drift against ~0 is meaningless.
const absEpsilon = 1e-9

// Metric is one scalar measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	// Tol is this metric's relative tolerance band; 0 means
	// DefaultTolerance.
	Tol float64 `json:"tol,omitempty"`
}

// Metrics is a list of metrics: an experiment's rows, or an artifact's.
type Metrics []Metric

// Add appends a metric.
func (ms *Metrics) Add(name string, value float64, unit string, tol float64) {
	*ms = append(*ms, Metric{Name: name, Value: value, Unit: unit, Tol: tol})
}

// Get returns the named metric.
func (ms Metrics) Get(name string) (Metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Artifact is one benchmark run: provenance plus metrics sorted by name.
type Artifact struct {
	Schema  int     `json:"schema"`
	Name    string  `json:"name"`
	GitRev  string  `json:"git_rev"`
	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
	Workers int     `json:"workers"`
	Metrics Metrics `json:"metrics"`
}

// Sort orders metrics by name — the canonical on-disk order.
func (a *Artifact) Sort() {
	sort.Slice(a.Metrics, func(i, j int) bool { return a.Metrics[i].Name < a.Metrics[j].Name })
}

// Validate checks schema version and metric-name uniqueness.
func (a *Artifact) Validate() error {
	if a.Schema != SchemaVersion {
		return fmt.Errorf("benchfmt: schema %d, this tool speaks %d", a.Schema, SchemaVersion)
	}
	seen := make(map[string]bool, len(a.Metrics))
	for _, m := range a.Metrics {
		if seen[m.Name] {
			return fmt.Errorf("benchfmt: duplicate metric %q", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// Write serializes the artifact: metrics sorted, indented JSON, trailing
// newline. Two encodes of the same artifact are byte-identical.
func Write(w io.Writer, a Artifact) error {
	a.Metrics = append([]Metric(nil), a.Metrics...)
	(&a).Sort()
	if err := (&a).Validate(); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// Read decodes and validates an artifact, re-sorting its metrics.
func Read(r io.Reader) (Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return a, err
	}
	a.Sort()
	return a, a.Validate()
}

// WriteFile writes the artifact to path.
func WriteFile(path string, a Artifact) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads the artifact at path.
func ReadFile(path string) (Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return Artifact{}, err
	}
	defer f.Close()
	a, err := Read(f)
	if err != nil {
		return a, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// Comparison statuses.
const (
	StatusOK      = "ok"      // within band
	StatusDrift   = "DRIFT"   // outside band — a violation
	StatusMissing = "MISSING" // metric in old but not new — a violation
	StatusNew     = "new"     // metric in new but not old — informational
)

// Diff is one metric's comparison.
type Diff struct {
	Name   string
	Old    float64
	New    float64
	Rel    float64 // relative drift |new-old|/|old| (absolute when old ~ 0)
	Tol    float64
	Status string
}

// CompareResult is the outcome of comparing two artifacts.
type CompareResult struct {
	Diffs      []Diff
	Violations int
	// Identical counts the metrics whose new value equals the old bit for bit.
	Identical int
}

// CheckComparable rejects comparisons that would be apples-to-oranges:
// different schema, scale, or seed. Worker width is deliberately not
// checked — artifact content is worker-invariant by the determinism
// contract, and comparing across widths is exactly how that is audited.
func CheckComparable(old, new Artifact) error {
	if old.Schema != new.Schema {
		return fmt.Errorf("schema mismatch: %d vs %d", old.Schema, new.Schema)
	}
	if old.Scale != new.Scale {
		return fmt.Errorf("scale mismatch: %g vs %g", old.Scale, new.Scale)
	}
	if old.Seed != new.Seed {
		return fmt.Errorf("seed mismatch: %d vs %d", old.Seed, new.Seed)
	}
	return nil
}

// Compare diffs new against the old baseline. Per metric, the tolerance is
// the old artifact's band (falling back to DefaultTolerance): baselines own
// their tolerances. A metric missing from new is a violation; a metric new
// to the suite is informational only. Diffs are returned in name order.
func Compare(old, new Artifact) CompareResult {
	var res CompareResult
	newByName := make(map[string]Metric, len(new.Metrics))
	for _, m := range new.Metrics {
		newByName[m.Name] = m
	}
	oldNames := make(map[string]bool, len(old.Metrics))
	for _, om := range old.Metrics {
		oldNames[om.Name] = true
		tol := om.Tol
		if tol == 0 {
			tol = DefaultTolerance
		}
		nm, ok := newByName[om.Name]
		if !ok {
			res.Diffs = append(res.Diffs, Diff{Name: om.Name, Old: om.Value, Tol: tol, Status: StatusMissing})
			res.Violations++
			continue
		}
		var rel float64
		if math.Abs(om.Value) > absEpsilon {
			rel = math.Abs(nm.Value-om.Value) / math.Abs(om.Value)
		} else {
			rel = math.Abs(nm.Value - om.Value)
		}
		d := Diff{Name: om.Name, Old: om.Value, New: nm.Value, Rel: rel, Tol: tol, Status: StatusOK}
		if nm.Value == om.Value {
			res.Identical++
		}
		if rel > tol {
			d.Status = StatusDrift
			res.Violations++
		}
		res.Diffs = append(res.Diffs, d)
	}
	for _, nm := range new.Metrics {
		if !oldNames[nm.Name] {
			res.Diffs = append(res.Diffs, Diff{Name: nm.Name, New: nm.Value, Status: StatusNew})
		}
	}
	sort.Slice(res.Diffs, func(i, j int) bool { return res.Diffs[i].Name < res.Diffs[j].Name })
	return res
}

// number parses n out of a BENCH_<n>.json path.
func number(path string) (int, error) {
	return strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json"))
}

// FindLatest returns the BENCH_<n>.json with the highest n in dir,
// excluding the named path (so a new artifact is never compared with
// itself when it already sits in dir).
func FindLatest(dir, exclude string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	excludeAbs, _ := filepath.Abs(exclude)
	best, bestN := "", -1
	for _, m := range matches {
		if abs, _ := filepath.Abs(m); exclude != "" && abs == excludeAbs {
			continue
		}
		if n, err := number(m); err == nil && n > bestN {
			best, bestN = m, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json artifacts in %s", dir)
	}
	return best, nil
}

// NextPath returns the path of the next unused artifact number in dir:
// BENCH_<max+1>.json, or BENCH_1.json when dir holds no artifacts yet.
func NextPath(dir string) (string, error) {
	latest, err := FindLatest(dir, "")
	if err != nil {
		return filepath.Join(dir, "BENCH_1.json"), nil
	}
	n, _ := number(latest) // FindLatest returns only names that parse
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n+1)), nil
}
