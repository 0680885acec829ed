package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"waflfs/internal/stats"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {5_000_000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Ten samples must lie beyond the reported tail percentile.
	for _, n := range []int{100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		p := stats.Percentile(xs, tailPercentile(n))
		if beyond := float64(n) - p; beyond != 10 {
			t.Errorf("n=%d: %v samples beyond p%v, want 10", n, beyond, tailPercentile(n))
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of odd count = %v, want 5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestQuietDecile(t *testing.T) {
	// 50 segments, 30 of them inside a slow phase: the quiet decile still
	// reads the undisturbed value, which the median does not.
	var rates, times []float64
	for i := 0; i < 50; i++ {
		r, d := 340.0+float64(i%5), 1.00+float64(i%5)/100
		if i < 30 {
			r, d = 200, 1.7
		}
		rates, times = append(rates, r), append(times, d)
	}
	if got := quiet(rates, true); got < 340 {
		t.Errorf("quiet rate = %v, want an undisturbed segment (>= 340)", got)
	}
	if got := quiet(times, false); got > 1.05 {
		t.Errorf("quiet time = %v, want an undisturbed segment (<= 1.05)", got)
	}
}

func TestSelfTime(t *testing.T) {
	// segment [0,1000) with a CP child [100,400) and three op spans of 50,
	// 60 and 70 ns; a second segment with no children; a root-level scrub.
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 1000, kind: spanSegment},
		{ID: 1, Parent: 0, Start: 100, End: 400, kind: spanCP},
		{ID: 2, Parent: -1, Start: 1000, End: 1500, kind: spanSegment},
		{ID: 3, Parent: -1, Start: 1500, End: 1600, kind: spanScrub},
	}
	ops := opSpans{
		start:  []int64{400, 500, 600},
		dur:    []uint32{50, 60, 70},
		kind:   []uint8{spanWrite, spanWrite, spanRead},
		parent: []int32{0, 0, 0},
	}
	want := []int64{1000 - 300 - 180, 300, 500, 100}
	if got := selfTimes(spans, ops); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := newRecorder(true, 4)
	r.beginSegment()
	r.call(spanCP, func() {})
	t0 := r.now()
	r.op(spanWrite, t0, t0+5)
	r.endSegment()
	r.call(spanScrub, func() {})
	if len(r.spans) != 3 || r.spans[1].Parent != 0 || r.spans[2].Parent != -1 {
		t.Fatalf("span parents wrong: %+v", r.spans)
	}
	if r.spans[0].End < r.spans[1].End {
		t.Errorf("segment ends before its child: %+v", r.spans[:2])
	}
	if got := r.opDurations(spanWrite); len(got) != 1 || got[0] != 5 {
		t.Errorf("opDurations = %v, want [5]", got)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.writeJSON(path, "w", 1); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"wafl.cp"`, `"wafl.write"`, `"segment"`, `"op_spans_total":1`} {
		if !strings.Contains(string(buf), want) {
			t.Errorf("trace file lacks %s: %s", want, buf)
		}
	}
}

// metricName is the contract's rule for metric and workload names.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricDefinitions(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d MetricDef, endToEnd bool) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Clock != Host && d.Clock != Modeled {
			t.Errorf("%s: clock %q", d.Name, d.Clock)
		}
		if endToEnd && (d.Bound <= 0 || d.Bound > 0.25 || d.Layer != "") {
			t.Errorf("%s: end-to-end metric with bound %v, layer %q", d.Name, d.Bound, d.Layer)
		}
		if !endToEnd && (d.Bound != 0 || d.Layer == "" || d.Moves == "" || !strings.HasPrefix(d.Name, d.Layer+".")) {
			t.Errorf("%s: per-layer metric with bound %v, layer %q, moves %q", d.Name, d.Bound, d.Layer, d.Moves)
		}
	}
	for _, d := range EndToEnd {
		check(d, true)
	}
	for _, d := range PerLayer {
		check(d, false)
	}
	if d, ok := findMetric("setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", d)
	}
	if len(EndToEnd) > 16 || len(PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract", len(EndToEnd), len(PerLayer))
	}
	for _, w := range Workloads {
		if !metricName.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	for _, bad := range []string{"", "has space", "-lead", "slash/name", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name regex accepts %q", bad)
		}
	}
}

func TestManifestMatchesCommittedFile(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the definitions; regenerate it with: sh benchmark/run.sh -manifest > BENCHMARK.json")
	}
}

func TestResultsRoundTrip(t *testing.T) {
	in := Results{GoVersion: "go1.x", GOMAXPROCS: 2, NumCPU: 2, Seconds: 10, Runs: []RunResult{{
		Workload: "ssd_overwrite", Seed: 43, Correct: true, Attempted: 10, Metrics: Metrics{
			"host_kops_per_s":   {Value: 545.6530123, Unit: "kops/s", N: 50},
			"wafl.write_ns_p99": {Value: 1234, Unit: "ns", N: 5000, Pct: 99},
		},
	}, {
		Workload: "hdd_oltp", Seed: 43, Traced: true, Attempted: 3, Failed: 1,
		Failures: []string{"scrub: divergent"}, Metrics: Metrics{},
	}}}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := writeResults(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the results:\n in %+v\nout %+v", in, out)
	}

	var line bytes.Buffer
	if err := printResultLine(&line, in.Runs[0]); err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":10,"failed":0,"metrics":{"host_kops_per_s":{"value":545.6530123,"unit":"kops/s"},"wafl.write_ns_p99":{"value":1234,"unit":"ns"}}}` + "\n"
	if line.String() != want {
		t.Errorf("result line\n got %s\nwant %s", line.String(), want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 37, 7, 11, 16, 22, 29})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if got := spread([]float64{46, 1, 2, 4, 37, 7, 11, 16, 22, 29}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 27.5/13.5)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	rate := MetricDef{Name: "r", Better: "higher", Bound: 0.10}
	cost := MetricDef{Name: "c", Better: "lower", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100}
	loose := []float64{100, 130, 75, 100, 100}
	for _, c := range []struct {
		d    MetricDef
		a, b []float64
		want string
	}{
		{rate, tight, []float64{80, 81, 80}, verdictRegression},
		{rate, tight, []float64{120, 121, 120}, verdictImproved},
		{rate, tight, []float64{95, 96, 95}, verdictUnchanged},
		{cost, tight, []float64{120, 121, 120}, verdictRegression},
		{cost, tight, []float64{80, 81, 80}, verdictImproved},
		{cost, tight, []float64{100}, verdictUnchanged},
		// Within the bound, but one side's own runs spread wider than it.
		{rate, loose, []float64{95, 96, 95}, verdictUnresolved},
		{cost, tight, loose, verdictUnresolved},
		// A regression stays a regression however noisy the runs.
		{rate, loose, []float64{50, 51, 50}, verdictRegression},
	} {
		got, _ := judge(c.d, c.a, c.b)
		if got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, kops float64, correct bool) string {
		r := Results{Runs: []RunResult{{Workload: "ssd_overwrite", Correct: correct, Attempted: 1, Metrics: Metrics{
			"host_kops_per_s": {Value: kops, Unit: "kops/s"},
			"setup_s":         {Value: 1, Unit: "s"},
		}}}}
		path := filepath.Join(dir, name)
		if err := writeResults(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow, broken := mk("a.json", 500, true), mk("b.json", 490, true), mk("c.json", 300, true), mk("d.json", 500, false)
	var out bytes.Buffer
	if code := compareFiles(&out, base, same); code != 0 {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, slow); code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("40%% slower run: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(&out, base, broken); code != 1 {
		t.Errorf("failed run: exit %d", code)
	}
	if code := compareFiles(&out, base, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
}

// TestQuickSmoke runs all five workloads at -quick size: untraced always,
// traced too unless -short. It checks the acceptance properties that do not
// depend on timing.
func TestQuickSmoke(t *testing.T) {
	cfg := config{seed: 43, seconds: 1, quick: true, outDir: t.TempDir()}
	layers := map[string]Metrics{}
	for _, w := range Workloads {
		res := runOne(w, cfg, false)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s untraced: %+v", w.Name, res.Failures)
		}
		for _, d := range EndToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, d.Name, v)
			}
		}
		if len(res.Metrics) != len(EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, %d defined", w.Name, len(res.Metrics), len(EndToEnd))
		}
		if testing.Short() {
			continue
		}
		res = runOne(w, cfg, true)
		if !res.Correct {
			t.Fatalf("%s traced: %v", w.Name, res.Failures)
		}
		for _, d := range PerLayer {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v", w.Name, d.Name, v)
			}
		}
		if len(res.Metrics) != len(PerLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d defined", w.Name, len(res.Metrics), len(PerLayer))
		}
		if v := res.Metrics["bench.trace_overhead_ratio"].Value; v <= 0 {
			t.Errorf("%s: bench.trace_overhead_ratio = %v", w.Name, v)
		}
		for _, f := range []string{"trace-" + w.Name + ".json", "cpu-" + w.Name + ".prof"} {
			if st, err := os.Stat(filepath.Join(cfg.outDir, f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: traced run left no %s (%v)", w.Name, f, err)
			}
		}
		layers[w.Name] = res.Metrics
	}
	if testing.Short() {
		return
	}
	obsWork := []string{"obs.tsdb_series", "obs.optrace_traces", "obs.slo_evals", "obs.control_evals", "obs.watchdog_checks"}
	for _, name := range obsWork {
		if v := layers["ssd_overwrite"][name].Value; v != 0 {
			t.Errorf("ssd_overwrite: %s = %v, want no observability work", name, v)
		}
		if v := layers["ssd_overwrite_obs"][name].Value; v == 0 {
			t.Errorf("ssd_overwrite_obs: %s = 0, want observability work", name)
		}
	}
	if v := layers["hdd_oltp"]["wafl.read_ns_p50"]; v.Value <= 0 || v.N == 0 {
		t.Errorf("hdd_oltp: wafl.read_ns_p50 = %+v, want reads", v)
	}
	if v := layers["ssd_overwrite"]["wafl.read_ns_p50"]; v.Value != 0 || v.N != 0 {
		t.Errorf("ssd_overwrite: wafl.read_ns_p50 = %+v, want none", v)
	}
	if v := layers["mount_cycle"]["wafl.remount_walk_ms_p50"]; v.Value <= 0 {
		t.Errorf("mount_cycle: wafl.remount_walk_ms_p50 = %+v", v)
	}
	if v := layers["snap_pipeline"]["wafl.overlap_gain"]; v.Value < 1 {
		t.Errorf("snap_pipeline: wafl.overlap_gain = %+v, want >= 1", v)
	}
	for name, m := range layers {
		if v := m["obs.watchdog_violations"].Value; v != 0 {
			t.Errorf("%s: %v watchdog violations", name, v)
		}
		if v := m["hbps.bytes"].Value; v != 8192 {
			t.Errorf("%s: hbps.bytes = %v, want the paper's two pages", name, v)
		}
	}
}
