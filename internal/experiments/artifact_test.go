package experiments

import (
	"bytes"
	"context"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"waflfs/internal/benchfmt"
)

// collectTiny runs the whole registry at a tiny scale with the artifact's
// sinks armed and audits them, as waflbench -bench-json does, and returns
// the artifact.
func collectTiny(t *testing.T, workers int) benchfmt.Artifact {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.Workers = workers
	cfg.Obs = ArtifactSinks(cfg.Seed)
	rows, err := RunAllContext(context.Background(), cfg, io.Discard, All())
	if err != nil {
		t.Fatal(err)
	}
	audit, err := Audit(cfg.Obs)
	if err != nil {
		t.Fatal(err)
	}
	art := benchfmt.Artifact{Schema: benchfmt.SchemaVersion, Seed: cfg.Seed, Scale: cfg.Scale,
		Workers: workers, Metrics: append(rows, audit...)}
	art.Sort()
	return art
}

// The artifact holds the rows of every figure, gate and audit clause, with
// unique names, at most 120 of them, and encodes byte-stably like any
// committed BENCH file.
func TestArtifactShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	art := collectTiny(t, 1)
	if err := art.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(art.Metrics); n > 120 {
		t.Errorf("%d rows, want at most 120", n)
	}
	for _, name := range []string{
		"fig6.agg_picked_on",
		"fig7.fresh_aged_ratio",
		"fig8.wa_large",
		"fig9.interventions_small",
		"fig10.size.speedup_x",
		"micro.mount.seeded_reads",
		"micro.cp.flush_speedup_x",
		"crash.pipeline.divergent",
		"cp.pipeline.overlap_gain",
		"alloc.speedup_w8",
		"control.storm.wall_ratio",
		"watchdog.checks",
		"slo.pages_crash",
		"optrace.attr_coverage",
	} {
		if _, ok := art.Metrics.Get(name); !ok {
			t.Errorf("row %q missing", name)
		}
	}
	var a, b bytes.Buffer
	if err := benchfmt.Write(&a, art); err != nil {
		t.Fatal(err)
	}
	if err := benchfmt.Write(&b, art); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("artifact encoding not byte-stable")
	}
}

// The whole pipeline is worker-invariant: artifacts collected at widths 1
// and 8 carry identical rows, so benchdiff across widths audits the
// determinism contract end to end.
func TestArtifactWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry twice")
	}
	a1 := collectTiny(t, 1)
	a8 := collectTiny(t, 8)
	if err := benchfmt.CheckComparable(a1, a8); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1.Metrics, a8.Metrics) {
		for _, d := range benchfmt.Compare(a1, a8).Diffs {
			if d.Old != d.New {
				t.Errorf("%s: workers=1 %v, workers=8 %v", d.Name, d.Old, d.New)
			}
		}
		t.Fatal("rows diverged across worker widths")
	}
}

// appendixPatterns reads the row patterns of EXPERIMENTS.md's metric
// appendix: the backticked names in the first cell of each table row, where
// <x> stands for one dotted segment and {a,b} for either word.
func appendixPatterns(t *testing.T) map[string]*regexp.Regexp {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, appendix, ok := strings.Cut(string(doc), "\n## Metric appendix")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no metric appendix")
	}
	appendix, _, _ = strings.Cut(appendix, "\n## ")
	name := regexp.MustCompile("`([^`]+)`")
	pats := map[string]*regexp.Regexp{}
	for _, line := range strings.Split(appendix, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			p := m[1]
			re := "^"
			for i := 0; i < len(p); i++ {
				switch p[i] {
				case '<':
					re += `[^.]+`
					i += strings.IndexByte(p[i:], '>')
				case '{':
					re += "("
				case '}':
					re += ")"
				case ',':
					re += "|"
				default:
					re += regexp.QuoteMeta(p[i : i+1])
				}
			}
			pats[p] = regexp.MustCompile(re + "$")
		}
	}
	if len(pats) == 0 {
		t.Fatal("the metric appendix lists no rows")
	}
	return pats
}

// Every row names its consumer: each row of a tiny-scale artifact has an
// entry in EXPERIMENTS.md's metric appendix, and each entry matches a row.
func TestArtifactRowsDocumented(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	pats := appendixPatterns(t)
	used := map[string]bool{}
	for _, m := range collectTiny(t, 1).Metrics {
		found := false
		for p, re := range pats {
			if re.MatchString(m.Name) {
				found, used[p] = true, true
			}
		}
		if !found {
			t.Errorf("row %s has no entry in EXPERIMENTS.md's metric appendix", m.Name)
		}
	}
	for p := range pats {
		if !used[p] {
			t.Errorf("appendix entry %s matches no row", p)
		}
	}
}
