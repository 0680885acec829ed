// Command benchdiff compares two benchmark artifacts (BENCH_<n>.json, see
// internal/benchfmt) and exits non-zero when any metric drifts beyond its
// tolerance band — the regression gate for the repo's perf trajectory.
//
// Usage:
//
//	benchdiff OLD.json NEW.json    compare NEW against the OLD baseline
//	benchdiff NEW.json             compare against the newest committed
//	                               BENCH_<n>.json in -dir (excluding NEW)
//	benchdiff -print-latest        print the newest BENCH_<n>.json in -dir
//	benchdiff -print-next          print the first unused BENCH_<n>.json name
//
// The -print-* modes let scripts (verify.sh, make bench) discover the
// baseline and the next artifact number without duplicating the numbering
// convention.
//
// Tolerances are relative bands carried per metric by the OLD artifact
// (default 0.25). Metrics present only in NEW are informational, and are
// summarized per family (first dotted name component) so freshly landed
// metric suites show up in the gate output by name. The summary line also
// counts the metrics that did not move at all (bit-identical values), so a
// change that claims to move nothing reads its claim off the tool. Exit
// status: 0 = within bands, 1 = drift or missing metrics, 2 = usage or I/O
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"waflfs/internal/benchfmt"
	"waflfs/internal/stats"
)

func main() {
	dir := flag.String("dir", ".", "directory searched for the newest BENCH_<n>.json baseline")
	verbose := flag.Bool("v", false, "print every metric, not just violations")
	printLatest := flag.Bool("print-latest", false, "print the newest BENCH_<n>.json path in -dir and exit")
	printNext := flag.Bool("print-next", false, "print the first unused BENCH_<n>.json path in -dir and exit")
	flag.Parse()
	if *printLatest || *printNext {
		var path string
		var err error
		if *printLatest {
			path, err = benchfmt.FindLatest(*dir, "")
		} else {
			path, err = benchfmt.NextPath(*dir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(path)
		return
	}
	os.Exit(run(os.Stdout, os.Stderr, *dir, *verbose, flag.Args()))
}

func run(out, errw io.Writer, dir string, verbose bool, args []string) int {
	var oldPath, newPath string
	switch len(args) {
	case 1:
		newPath = args[0]
		var err error
		oldPath, err = benchfmt.FindLatest(dir, newPath)
		if err != nil {
			fmt.Fprintln(errw, err)
			return 2
		}
	case 2:
		oldPath, newPath = args[0], args[1]
	default:
		fmt.Fprintln(errw, "usage: benchdiff [-dir D] [-v] [OLD.json] NEW.json")
		return 2
	}

	oldArt, err := benchfmt.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	newArt, err := benchfmt.ReadFile(newPath)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	if err := benchfmt.CheckComparable(oldArt, newArt); err != nil {
		fmt.Fprintf(errw, "benchdiff: artifacts not comparable: %v\n", err)
		return 2
	}

	res := benchfmt.Compare(oldArt, newArt)
	tb := stats.Table{
		Title: fmt.Sprintf("benchdiff %s (%s) -> %s (%s)",
			oldPath, oldArt.GitRev, newPath, newArt.GitRev),
		Columns: []string{"metric", "old", "new", "drift", "tol", "status"},
	}
	shown := 0
	for _, d := range res.Diffs {
		if !verbose && d.Status == benchfmt.StatusOK {
			continue
		}
		tb.AddRow(d.Name,
			fmt.Sprintf("%.6g", d.Old), fmt.Sprintf("%.6g", d.New),
			fmt.Sprintf("%.1f%%", 100*d.Rel), fmt.Sprintf("%.0f%%", 100*d.Tol),
			d.Status)
		shown++
	}
	if shown > 0 {
		fmt.Fprintln(out, tb.String())
	}
	// Metrics new since the baseline are informational, but a whole new
	// family (first dotted component) usually means a subsystem landed and
	// its gates are live for the first time — name them so the gate output
	// records the suite growing, not just holding.
	newByFamily := map[string]int{}
	for _, d := range res.Diffs {
		if d.Status == benchfmt.StatusNew {
			fam, _, _ := strings.Cut(d.Name, ".")
			newByFamily[fam]++
		}
	}
	if len(newByFamily) > 0 {
		fams := make([]string, 0, len(newByFamily))
		for fam := range newByFamily {
			fams = append(fams, fam)
		}
		sort.Strings(fams)
		parts := make([]string, len(fams))
		for i, fam := range fams {
			parts[i] = fmt.Sprintf("%s (%d)", fam, newByFamily[fam])
		}
		fmt.Fprintf(out, "new since baseline: %s\n", strings.Join(parts, ", "))
	}
	if res.Violations > 0 {
		fmt.Fprintf(out, "FAIL: %d of %d metrics drifted beyond tolerance, %d identical\n",
			res.Violations, len(res.Diffs), res.Identical)
		return 1
	}
	fmt.Fprintf(out, "ok: %d metrics within tolerance, %d identical\n", len(res.Diffs), res.Identical)
	return 0
}
