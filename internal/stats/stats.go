// Package stats provides the small numeric helpers the experiment
// harnesses use to summarize measurements: means, percentiles, and
// formatted series output matching the rows/curves the paper reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank on a sorted copy. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Summary is a one-time-sorted view of a sample set. Percentile sorts a
// fresh copy on every call, which is wasteful when a harness asks for
// several quantiles of the same data; Summarize sorts once and then serves
// Mean/Percentile/Min/Max in O(1) without re-sorting.
type Summary struct {
	sorted []float64
	mean   float64
}

// Summarize copies and sorts xs once. The input slice is not modified.
func Summarize(xs []float64) Summary {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{sorted: sorted, mean: Mean(sorted)}
}

// N returns the sample count.
func (s Summary) N() int { return len(s.sorted) }

// Mean returns the arithmetic mean (0 for an empty summary).
func (s Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample (0 for an empty summary).
func (s Summary) Min() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[0]
}

// Max returns the largest sample (0 for an empty summary).
func (s Summary) Max() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest rank,
// matching the package-level Percentile but without the per-call sort.
func (s Summary) Percentile(p float64) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	rank := int(math.Ceil(p/100*float64(len(s.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.sorted) {
		rank = len(s.sorted) - 1
	}
	return s.sorted[rank]
}

// Series is a labeled sequence of (x, y) points — one curve of a figure.
type Series struct {
	Label  string
	X, Y   []float64
	XLabel string
	YLabel string
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders rows of named columns with aligned widths, the output
// format of the benchmark harness.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row; cells may be any fmt value.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table: columns left-justified to their widest cell, two
// spaces apart, and no line ending in a space, because the last cell of a
// row is not padded.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(cell)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Ratio returns a/b, or 0 when b is 0; a convenience for improvement
// factors in EXPERIMENTS.md reporting.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PercentChange returns (new-old)/old in percent, or 0 when old is 0.
func PercentChange(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}
