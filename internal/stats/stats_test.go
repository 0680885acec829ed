package stats

import (
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile sorted its input")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range percentile did not panic")
		}
	}()
	Percentile(xs, 101)
}

func TestSummaryMatchesPercentile(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6}
	s := Summarize(xs)
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 95, 100} {
		if got, want := s.Percentile(p), Percentile(xs, p); got != want {
			t.Fatalf("Summary.Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if s.Mean() != Mean(xs) {
		t.Fatalf("Summary.Mean = %v, want %v", s.Mean(), Mean(xs))
	}
	if s.Min() != 1 || s.Max() != 9 || s.N() != 9 {
		t.Fatalf("min/max/n = %v/%v/%d", s.Min(), s.Max(), s.N())
	}
	// Summarize must not mutate its input.
	if xs[0] != 9 {
		t.Fatal("Summarize sorted its input")
	}
}

func TestSummaryEmptyAndPanics(t *testing.T) {
	var empty Summary
	if empty.Mean() != 0 || empty.Percentile(50) != 0 || empty.Min() != 0 ||
		empty.Max() != 0 || empty.N() != 0 {
		t.Fatal("zero Summary must read zero")
	}
	if Summarize(nil).Percentile(99) != 0 {
		t.Fatal("empty Summarize percentile")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range percentile did not panic")
		}
	}()
	Summarize([]float64{1}).Percentile(-1)
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	if len(s.X) != 2 || s.Y[1] != 20 {
		t.Fatalf("series = %+v", s)
	}
}

func TestTable(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"name", "value"}}
	tb.AddRow("alpha", 1.25)
	tb.AddRow("b", "raw")
	out := tb.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines", len(lines))
	}
	// Columns align: both data rows start "name-width" apart.
	if !strings.HasPrefix(lines[2], "alpha  ") || !strings.HasPrefix(lines[3], "b      ") {
		t.Fatalf("alignment broken:\n%s", out)
	}
}

// No rendered line ends in a space: the last column, whose header or cells
// are wider than some of its cells, is not padded.
func TestTableNoTrailingSpace(t *testing.T) {
	tb := Table{Title: "t", Columns: []string{"step", "write amp"}}
	tb.AddRow(0, 1.0)
	tb.AddRow("a much wider first cell", "x")
	tb.AddRow(1)
	out := tb.String()
	for i, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, " ") {
			t.Fatalf("line %d ends in a space: %q\n%s", i, line, out)
		}
	}
	if want := "\n0                        1\n"; !strings.Contains(out, want) {
		t.Fatalf("the last column is not aligned after a padded one:\n%s", out)
	}
}

func TestRatios(t *testing.T) {
	if Ratio(10, 4) != 2.5 || Ratio(1, 0) != 0 {
		t.Fatal("Ratio wrong")
	}
	if PercentChange(100, 124) != 24 {
		t.Fatalf("PercentChange = %v", PercentChange(100, 124))
	}
	if PercentChange(0, 5) != 0 {
		t.Fatal("PercentChange zero base")
	}
}
