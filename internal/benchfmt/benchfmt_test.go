package benchfmt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The golden artifact decodes, validates, and survives a decode→encode
// round trip byte-for-byte: field order and metric order are canonical, so
// committed BENCH_<n>.json files never churn under re-encoding.
func TestGoldenRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema != SchemaVersion || a.Name != "BENCH_golden" || a.GitRev != "abc1234" {
		t.Fatalf("provenance: %+v", a)
	}
	if a.Seed != 42 || a.Scale != 0.35 || a.Workers != 8 {
		t.Fatalf("provenance: %+v", a)
	}
	if len(a.Metrics) != 5 {
		t.Fatalf("%d metrics", len(a.Metrics))
	}
	if m, ok := a.Metrics.Get("fig6.wa_off"); !ok || m.Value != 1.8 || m.Unit != "x" || m.Tol != 0.15 {
		t.Fatalf("fig6.wa_off = %+v, %v", m, ok)
	}
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("round trip not byte-stable:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), raw)
	}
}

// Write sorts metrics into name order and two encodes are identical even
// when the in-memory order differs.
func TestWriteStableOrdering(t *testing.T) {
	a := Artifact{Schema: SchemaVersion, Name: "t", GitRev: "r", Seed: 1, Scale: 1, Workers: 1}
	a.Metrics.Add("zeta", 3, "", 0)
	a.Metrics.Add("alpha", 1, "", 0)
	a.Metrics.Add("mid", 2, "", 0)

	var first bytes.Buffer
	if err := Write(&first, a); err != nil {
		t.Fatal(err)
	}
	// Writing must not have mutated the caller's slice ordering guarantee;
	// scramble again and re-encode.
	a.Metrics[0], a.Metrics[2] = a.Metrics[2], a.Metrics[0]
	var second bytes.Buffer
	if err := Write(&second, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("encodes of permuted metric slices differ")
	}
	got, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if got.Metrics[i].Name != want {
			t.Fatalf("metric %d = %q, want %q", i, got.Metrics[i].Name, want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	a := Artifact{Schema: SchemaVersion + 1}
	if err := a.Validate(); err == nil {
		t.Error("wrong schema accepted")
	}
	b := Artifact{Schema: SchemaVersion}
	b.Metrics.Add("dup", 1, "", 0)
	b.Metrics.Add("dup", 2, "", 0)
	if err := b.Validate(); err == nil {
		t.Error("duplicate metric accepted")
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	a, err := ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	res := Compare(a, a)
	if res.Violations != 0 {
		t.Fatalf("self-compare: %d violations: %+v", res.Violations, res.Diffs)
	}
	if len(res.Diffs) != len(a.Metrics) || res.Identical != len(a.Metrics) {
		t.Fatalf("%d diffs, %d identical for %d metrics", len(res.Diffs), res.Identical, len(a.Metrics))
	}
	for _, d := range res.Diffs {
		if d.Status != StatusOK || d.Rel != 0 {
			t.Fatalf("self diff %+v", d)
		}
	}
}

// Drift beyond the baseline's band is a violation; the baseline's Tol wins
// over the candidate's.
func TestCompareDetectsDrift(t *testing.T) {
	old := Artifact{Schema: SchemaVersion}
	old.Metrics.Add("tight", 100, "", 0.05)
	old.Metrics.Add("loose", 100, "", 0.5)
	old.Metrics.Add("deflt", 100, "", 0) // DefaultTolerance = 0.25
	old.Metrics.Add("gone", 7, "", 0)

	new := Artifact{Schema: SchemaVersion}
	new.Metrics.Add("tight", 110, "", 0.9) // +10% vs 5% band: DRIFT despite own loose band
	new.Metrics.Add("loose", 140, "", 0)   // +40% vs 50% band: ok
	new.Metrics.Add("deflt", 130, "", 0)   // +30% vs default 25%: DRIFT
	new.Metrics.Add("fresh", 1, "", 0)     // new metric: informational

	res := Compare(old, new)
	if res.Violations != 3 {
		t.Fatalf("violations = %d, want 3 (tight, deflt, gone): %+v", res.Violations, res.Diffs)
	}
	if res.Identical != 0 {
		t.Fatalf("identical = %d, want 0: every shared metric moved", res.Identical)
	}
	status := map[string]string{}
	for _, d := range res.Diffs {
		status[d.Name] = d.Status
	}
	want := map[string]string{
		"tight": StatusDrift, "loose": StatusOK, "deflt": StatusDrift,
		"gone": StatusMissing, "fresh": StatusNew,
	}
	for name, w := range want {
		if status[name] != w {
			t.Errorf("%s: status %q, want %q", name, status[name], w)
		}
	}
}

// Near-zero baselines switch to absolute drift so relative bands don't
// divide by ~0.
func TestCompareZeroBaseline(t *testing.T) {
	old := Artifact{Schema: SchemaVersion}
	old.Metrics.Add("z", 0, "", 0.25)
	new := Artifact{Schema: SchemaVersion}
	new.Metrics.Add("z", 0.1, "", 0)
	if res := Compare(old, new); res.Violations != 0 {
		t.Fatalf("|0.1-0| <= 0.25 absolute should pass: %+v", res.Diffs)
	}
	new.Metrics[0].Value = 0.5
	if res := Compare(old, new); res.Violations != 1 {
		t.Fatalf("|0.5-0| > 0.25 absolute should fail: %+v", res.Diffs)
	}
}

func TestCheckComparable(t *testing.T) {
	base := Artifact{Schema: SchemaVersion, Scale: 0.35, Seed: 42, Workers: 1}
	same := base
	same.Workers = 8 // worker width deliberately not checked
	if err := CheckComparable(base, same); err != nil {
		t.Errorf("cross-width comparison rejected: %v", err)
	}
	for _, mut := range []func(*Artifact){
		func(a *Artifact) { a.Schema++ },
		func(a *Artifact) { a.Scale = 1.0 },
		func(a *Artifact) { a.Seed = 7 },
	} {
		bad := base
		mut(&bad)
		if err := CheckComparable(base, bad); err == nil {
			t.Errorf("mismatched artifact accepted: %+v", bad)
		}
	}
}

func TestFindLatest(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_1.json", "BENCH_3.json", "BENCH_12.json", "BENCH_x.json", "other.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := FindLatest(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_12.json" {
		t.Fatalf("latest = %s", got)
	}
	// Excluding the newest falls back to the next one.
	got, err = FindLatest(dir, filepath.Join(dir, "BENCH_12.json"))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_3.json" {
		t.Fatalf("latest excluding 12 = %s", got)
	}
	if _, err := FindLatest(t.TempDir(), ""); err == nil {
		t.Error("empty dir should error")
	}
}

func TestNextPath(t *testing.T) {
	dir := t.TempDir()
	got, err := NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_1.json" {
		t.Fatalf("empty dir next = %s, want BENCH_1.json", got)
	}
	for _, name := range []string{"BENCH_2.json", "BENCH_7.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err = NextPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_8.json" {
		t.Fatalf("next = %s, want BENCH_8.json", got)
	}
}
