package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waflfs/internal/benchfmt"
)

func writeArtifact(t *testing.T, path string, a benchfmt.Artifact) {
	t.Helper()
	if err := benchfmt.WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
}

func baseArtifact() benchfmt.Artifact {
	a := benchfmt.Artifact{Schema: benchfmt.SchemaVersion, Name: "BENCH_1",
		GitRev: "r1", Seed: 42, Scale: 0.35, Workers: 1}
	a.Metrics.Add("fig6.wa_on", 1.2, "x", 0.15)
	a.Metrics.Add("crash.divergent", 0, "count", 0.001)
	a.Metrics.Add("micro.write.cpu_per_op_ns", 900, "ns", 0)
	return a
}

// Self-comparison must be a clean pass with exit 0 — the CI gate's sanity
// check that the pipeline never flags zero drift.
func TestRunSelfCompareExitsZero(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "BENCH_1.json")
	writeArtifact(t, p, baseArtifact())

	var out strings.Builder
	if code := run(&out, io.Discard, dir, false, []string{p, p}); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok: 3 metrics within tolerance, 3 identical") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// A synthetic tolerance violation must exit 1 and name the drifted metric —
// the acceptance criterion for the regression gate.
func TestRunDriftExitsOne(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	writeArtifact(t, oldP, baseArtifact())
	drifted := baseArtifact()
	for i := range drifted.Metrics {
		if drifted.Metrics[i].Name == "fig6.wa_on" {
			drifted.Metrics[i].Value *= 1.5 // +50% vs 15% band
		}
	}
	writeArtifact(t, newP, drifted)

	var out strings.Builder
	if code := run(&out, io.Discard, dir, false, []string{oldP, newP}); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "fig6.wa_on") ||
		!strings.Contains(out.String(), benchfmt.StatusDrift) ||
		!strings.Contains(out.String(), "FAIL: 1 of 3 metrics drifted beyond tolerance, 2 identical") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// One-argument form finds the newest committed BENCH_<n>.json as baseline,
// never the candidate itself.
func TestRunFindsLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, filepath.Join(dir, "BENCH_1.json"), baseArtifact())
	newer := baseArtifact()
	newer.Name, newer.GitRev = "BENCH_2", "r2"
	writeArtifact(t, filepath.Join(dir, "BENCH_2.json"), newer)
	cand := baseArtifact()
	cand.Name, cand.GitRev = "BENCH_9", "r9"
	candP := filepath.Join(dir, "BENCH_9.json")
	writeArtifact(t, candP, cand)

	var out strings.Builder
	if code := run(&out, io.Discard, dir, true, []string{candP}); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "(r2) -> ") {
		t.Fatalf("baseline should be BENCH_2 (r2):\n%s", out.String())
	}
}

func TestRunErrorsExitTwo(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "BENCH_1.json")
	writeArtifact(t, p, baseArtifact())

	if code := run(io.Discard, io.Discard, dir, false, nil); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run(io.Discard, io.Discard, dir, false, []string{p, filepath.Join(dir, "missing.json")}); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(io.Discard, io.Discard, dir, false, []string{p, bad}); code != 2 {
		t.Errorf("corrupt file: exit %d, want 2", code)
	}
	other := baseArtifact()
	other.Scale = 1.0
	otherP := filepath.Join(dir, "full.json")
	writeArtifact(t, otherP, other)
	if code := run(io.Discard, io.Discard, dir, false, []string{p, otherP}); code != 2 {
		t.Errorf("incomparable scale: exit %d, want 2", code)
	}
	// A candidate alone in an empty dir has no baseline.
	if code := run(io.Discard, io.Discard, t.TempDir(), false, []string{p}); code != 2 {
		t.Errorf("no baseline: exit %d, want 2", code)
	}
}

// Metrics present only in the candidate are grouped per family in one
// summary line — the gate output's record of a freshly landed suite — and
// never count as violations.
func TestRunNewFamilySummary(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	writeArtifact(t, oldP, baseArtifact())
	grown := baseArtifact()
	grown.Metrics.Add("control.actuations_clean", 0, "", 0.001)
	grown.Metrics.Add("control.storm.wall_ratio", 0.99, "", 0.1)
	grown.Metrics.Add("control.storm.actuations", 4, "", 0.25)
	grown.Metrics.Add("micro.read.cpu_per_op_ns", 700, "ns", 0)
	writeArtifact(t, newP, grown)

	var out strings.Builder
	if code := run(&out, io.Discard, dir, false, []string{oldP, newP}); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "new since baseline: control (3), micro (1)") {
		t.Fatalf("missing family summary:\n%s", out.String())
	}
}

// -v prints passing metrics too.
func TestRunVerbose(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "BENCH_1.json")
	writeArtifact(t, p, baseArtifact())
	var out strings.Builder
	if code := run(&out, io.Discard, dir, true, []string{p, p}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "micro.write.cpu_per_op_ns") {
		t.Fatalf("verbose output missing passing metric:\n%s", out.String())
	}
}
