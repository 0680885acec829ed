package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how
// the repeatability criterion is stated. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	q := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise of a metric. Fewer than two runs have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	s := (q3 - q1) / med
	if s < 0 {
		s = -s
	}
	return s
}

// Verdicts of one (workload, metric) row.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	// verdictUnresolved: the medians are within the bound, but one side's
	// own runs spread wider than the bound, so "no change" is not shown.
	verdictUnresolved = "unresolved"
)

// judge applies a metric's direction and bound to the medians of two sets
// of runs. worse is the share by which b's median is worse than a's.
func judge(d MetricDef, a, b []float64) (verdict string, worse float64) {
	ma, mb := median(a), median(b)
	switch {
	case ma == mb:
		worse = 0
	case ma == 0:
		worse = 1
	case d.Better == "higher":
		worse = (ma - mb) / ma
	default:
		worse = (mb - ma) / ma
	}
	switch {
	case worse > d.Bound:
		return verdictRegression, worse
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return verdictUnresolved, worse
	case worse < -d.Bound:
		return verdictImproved, worse
	default:
		return verdictUnchanged, worse
	}
}

// collect gathers, per workload, the values of each end-to-end metric over
// the untraced runs in a results file.
func collect(r Results) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range r.Runs {
		if run.Traced || !run.Correct {
			continue
		}
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, v := range run.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], v.Value)
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric) and returns
// the exit code: 1 when any row regressed or a side has failed runs, 2 when
// a file cannot be read.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 2
	}
	code := 0
	for _, r := range append(append([]RunResult(nil), a.Runs...), b.Runs...) {
		if !r.Correct {
			fmt.Fprintf(w, "run of %s failed %d of %d operations\n", r.Workload, r.Failed, r.Attempted)
			code = 1
		}
	}
	va, vb := collect(a), collect(b)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tclock\ta (median)\tb (median)\tworse by\tbound\tspread a\tspread b\tverdict")
	for _, wl := range Workloads {
		for _, d := range EndToEnd {
			xa, xb := va[wl.Name][d.Name], vb[wl.Name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict, worse := judge(d, xa, xb)
			if verdict == verdictRegression {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%g%%\t%.2f%%\t%.2f%%\t%s\n",
				wl.Name, d.Name, d.Clock,
				median(xa), median(xb),
				worse*100, d.Bound*100, spread(xa)*100, spread(xb)*100, verdict)
		}
	}
	tw.Flush()
	return code
}
