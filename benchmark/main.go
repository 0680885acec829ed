// Command benchmark is the two-clock benchmark of the waflfs simulator: for
// each of five workloads it reports what the Go code costs on the host
// (host clock) beside what the simulated storage server would take (modeled
// clock), end to end and per layer. See README.md.
//
// Driver form, one run of one workload, result as the last line of stdout:
//
//	benchmark --workload ssd_overwrite --seed 42 --seconds 10 --trace 0
//
// Without --workload it runs every workload untraced and traced, prints
// every metric, and writes out/results.json. With -compare a.json b.json it
// compares two such files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
)

// RunResult is the outcome of one run of one workload: the driver's result
// line plus what a reader needs to interpret it.
type RunResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Correct is false when any operation failed, panicked, or a post-run
	// check did not hold.
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   Metrics  `json:"metrics"`
}

// Results is the file the all-workloads form writes and -compare reads.
type Results struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Seconds    int         `json:"seconds"`
	Quick      bool        `json:"quick,omitempty"`
	Runs       []RunResult `json:"runs"`
}

// runSeconds is the window size the driver passes as --seconds.
const runSeconds = 10

// manifestJSON renders BENCHMARK.json from the definitions in this package,
// so the contract file and the program cannot disagree; a test compares it
// with the committed file.
func manifestJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"sh", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range Workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range EndToEnd {
		bound := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range PerLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(buf, '\n')
}

// config is the parsed command line.
type config struct {
	seed    int64
	seconds int
	quick   bool
	outDir  string
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's result line (default: run all)")
		trace    = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics (traced run + layer replay)")
		seed     = flag.Int64("seed", 42, "workload seed")
		seconds  = flag.Int("seconds", runSeconds, "window size in reference-host seconds; converted to a fixed op count per workload")
		quick    = flag.Bool("quick", false, "smoke sizing: small systems, ten rounds (numbers are not comparable)")
		repeat   = flag.Int("repeat", 1, "without -workload: untraced runs per workload, so -compare can see the run-to-run spread")
		outDir   = flag.String("out", "out", "directory for results.json, traces and CPU profiles")
		compare  = flag.Bool("compare", false, "compare two results files: benchmark -compare a.json b.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric and workload definitions imply it")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		if *seconds < 1 || *trace < 0 || *trace > 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
			os.Exit(2)
		}
		res := runOne(w, cfg, *trace == 1)
		printRun(os.Stdout, res)
		if err := printResultLine(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !res.Correct {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(cfg, *repeat))
	}
}

// runOne runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runOne(w Workload, cfg config, traced bool) RunResult {
	if traced {
		return runTraced(w, cfg)
	}
	p := runPass(w, cfg.seed, sizeFor(w, cfg.seconds, cfg.quick), passOpts{})
	res := resultOf(w, cfg.seed, false, p)
	if res.Correct {
		res.Metrics = p.endToEnd()
	}
	return res
}

// resultOf folds the operation and check counts of passes into a result.
func resultOf(w Workload, seed int64, traced bool, passes ...*pass) RunResult {
	res := RunResult{Workload: w.Name, Seed: seed, Traced: traced, Metrics: Metrics{}}
	for _, p := range passes {
		res.Attempted += p.attempted()
		res.Failed += p.failed()
		res.Failures = append(res.Failures, p.d.failures...)
	}
	res.Correct = res.Failed == 0
	return res
}

// runTraced produces the per-layer metrics. It runs the workload three
// times from the same seed: untraced as the reference, traced (spans around
// every call, MemStats around CPs, CPU profile), and untraced with the
// observability setting flipped. The traced pass must leave every modeled
// number bit-identical to the reference: timing from outside may not
// perturb the model.
func runTraced(w Workload, cfg config) RunResult {
	sz := sizeFor(w, cfg.seconds, cfg.quick)
	sz.setups = 1
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		panic(err)
	}
	ref := runPass(w, cfg.seed, sz, passOpts{})
	tr := runPass(w, cfg.seed, sz, passOpts{traced: true, profile: profilePath(cfg.outDir, w.Name)})
	flipped := w
	flipped.Obs = !w.Obs
	flip := runPass(flipped, cfg.seed, sz, passOpts{})
	res := resultOf(w, cfg.seed, true, ref, tr, flip)
	if !res.Correct {
		return res
	}

	refE, trE, flipE := ref.endToEnd(), tr.endToEnd(), flip.endToEnd()
	m := tr.layerMetrics()
	res.Attempted++
	if diff := modeledDiff(refE, trE) + modeledDiff(ref.layerMetrics(), m); diff != "" {
		res.Failed++
		res.Correct = false
		res.Failures = append(res.Failures, "traced run perturbed the model: "+diff)
	}

	for name, v := range tr.replay(cfg.quick) {
		m[name] = v
	}
	m.set("wafl.cp_self_frac", tr.cpSelfFrac(m), 0)
	kops := func(e Metrics) float64 { return e["host_kops_per_s"].Value }
	if w.Obs {
		m.set("obs.overhead_ratio", kops(flipE)/kops(refE), 0)
	} else {
		m.set("obs.overhead_ratio", kops(refE)/kops(flipE), 0)
	}
	m.set("bench.trace_overhead_ratio", kops(refE)/kops(trE), 0)
	for _, d := range PerLayer {
		if _, ok := m[d.Name]; !ok {
			m.set(d.Name, 0, 0) // does not apply to this workload
		}
	}
	res.Metrics = m
	if err := tr.d.rec.writeJSON(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"), w.Name, cfg.seed); err != nil {
		panic(err)
	}
	return res
}

// modeledDiff names the modeled-clock metrics on which two passes of the
// same seed disagree ("" when they are bit-identical).
func modeledDiff(a, b Metrics) string {
	var diff string
	for _, name := range a.sortedNames() {
		if x, y := a[name].Value, b[name].Value; mustMetric(name).Clock == Modeled && x != y {
			diff += fmt.Sprintf("%s: %v untraced, %v traced; ", name, x, y)
		}
	}
	return diff
}

// runAll runs every workload untraced (repeat times) and traced, prints
// every metric, and writes the results file. It returns the exit code.
func runAll(cfg config, repeat int) int {
	out := Results{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seconds: cfg.seconds, Quick: cfg.quick}
	fmt.Printf("%s, GOMAXPROCS %d, %d CPUs; closed loop, one client; seed %d, window %d s\n",
		out.GoVersion, out.GOMAXPROCS, out.NumCPU, cfg.seed, cfg.seconds)
	code := 0
	for _, w := range Workloads {
		for i := 0; i <= repeat; i++ {
			res := runOne(w, cfg, i == repeat)
			printRun(os.Stdout, res)
			if !res.Correct {
				code = 1
			}
			out.Runs = append(out.Runs, res)
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := writeResults(path, out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("wrote", path)
	return code
}

func writeResults(path string, r Results) error {
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResults(path string) (Results, error) {
	var r Results
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// printRun prints every metric of a run by name with its unit, clock,
// direction and bound.
func printRun(w io.Writer, res RunResult) {
	kind := "end to end, tracing off"
	if res.Traced {
		kind = "per layer, traced run + layer replay"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed %d: attempted %d, failed %d\n", res.Workload, kind, res.Seed, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tclock\tbetter\tbound\tsamples")
	defs := EndToEnd
	if res.Traced {
		defs = PerLayer
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		bound, samples := "-", "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%g%%", d.Bound*100)
		}
		if v.N > 0 {
			samples = fmt.Sprint(v.N)
		}
		if v.Pct > 0 {
			samples += fmt.Sprintf(" (p%g)", v.Pct)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%s\t%s\n", d.Name, v.Value, d.Unit, d.Clock, d.Better, bound, samples)
	}
	tw.Flush()
}

// printResultLine prints the driver's result object: exactly the keys
// correct, attempted, failed and metrics, each metric a value and a unit.
func printResultLine(w io.Writer, res RunResult) error {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]vu{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = vu{v.Value, v.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}
