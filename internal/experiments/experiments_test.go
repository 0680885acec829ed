package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

// quickConfig shrinks the experiments so the directional claims can be
// verified in CI time. The full-scale runs live in the bench harness.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.25
	return cfg
}

func TestFig6Directional(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := RunFig6(quickConfig(), io.Discard)

	// The cache must pick emptier AAs than random selection, in both
	// number spaces (§4.1).
	if res.AggPickedOn <= res.AggPickedOff {
		t.Errorf("aggregate pick quality: on %.3f <= off %.3f", res.AggPickedOn, res.AggPickedOff)
	}
	if res.VolPickedOn <= res.VolPickedOff {
		t.Errorf("volume pick quality: on %.3f <= off %.3f", res.VolPickedOn, res.VolPickedOff)
	}
	// The aggregate cache must improve peak throughput and reduce latency.
	if res.AggThroughputGainPct <= 0 {
		t.Errorf("aggregate cache throughput gain = %.1f%%", res.AggThroughputGainPct)
	}
	if res.AggLatencyChangePct >= 0 {
		t.Errorf("aggregate cache latency change = %.1f%%", res.AggLatencyChangePct)
	}
	// WA with the cache must not exceed WA without it.
	if res.WAOn > res.WAOff+1e-9 {
		t.Errorf("WA on %.3f > off %.3f", res.WAOn, res.WAOff)
	}
	// The FlexVol cache must reduce CPU per op (§4.1.2).
	if res.CPUPerOpVolOn >= res.CPUPerOpVolOff {
		t.Errorf("CPU/op: vol-cache on %v >= off %v", res.CPUPerOpVolOn, res.CPUPerOpVolOff)
	}
	// Cache maintenance must be a vanishing CPU fraction (paper ~0.002%
	// per cache; anything under 0.1% preserves the claim).
	if res.CacheCPUFraction > 0.001 {
		t.Errorf("cache CPU fraction = %.5f", res.CacheCPUFraction)
	}
	// Curves: latency non-decreasing with load, all throughputs positive.
	for _, c := range res.Curves {
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].LatencyMs+1e-9 < c.Points[i-1].LatencyMs {
				t.Errorf("%s: latency decreased with load at point %d", c.Label, i)
			}
		}
	}
}

func TestFig7Directional(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := RunFig7(quickConfig(), io.Discard)
	if len(res.PerRGBlocksPerSec) != 4 {
		t.Fatalf("groups = %d", len(res.PerRGBlocksPerSec))
	}
	// Fresh groups receive more blocks than aged groups (§4.2).
	if res.FreshToAgedBlockRatio <= 1.1 {
		t.Errorf("fresh/aged ratio = %.2f, want > 1.1", res.FreshToAgedBlockRatio)
	}
	// Within the fresh groups, blocks spread evenly across disks.
	for gi := 2; gi < 4; gi++ {
		disks := res.PerDiskBlocksPerSec[gi]
		min, max := disks[0], disks[0]
		for _, v := range disks {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if min <= 0 || max/min > 1.15 {
			t.Errorf("RG%d per-disk imbalance: min %.0f max %.0f", gi, min, max)
		}
	}
	// Aged groups fit fewer blocks per tetris (partial stripes).
	agedBPT := (res.BlocksPerTetris[0] + res.BlocksPerTetris[1]) / 2
	freshBPT := (res.BlocksPerTetris[2] + res.BlocksPerTetris[3]) / 2
	if agedBPT >= freshBPT {
		t.Errorf("blocks/tetris: aged %.1f >= fresh %.1f", agedBPT, freshBPT)
	}
}

func TestFig8Directional(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := RunFig8(quickConfig(), io.Discard)
	// Erase-block-sized AAs must beat HDD-sized AAs on an aged SSD system
	// (§4.3): higher peak throughput, lower latency, lower WA.
	if res.ThroughputGainPct <= 0 {
		t.Errorf("throughput gain = %.1f%%", res.ThroughputGainPct)
	}
	if res.LatencyChangePct >= 0 {
		t.Errorf("latency change = %.1f%%", res.LatencyChangePct)
	}
	if res.WALarge > res.WASmall+1e-9 {
		t.Errorf("WA large %.3f > small %.3f", res.WALarge, res.WASmall)
	}
}

func TestFig9Directional(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := RunFig9(quickConfig(), io.Discard)
	// Zone/AZCS-aligned AAs must beat HDD-sized AAs for sequential writes
	// on SMR (§4.3), and must eliminate the random checksum writes.
	if res.ThroughputGainPct <= 0 {
		t.Errorf("throughput gain = %.1f%%", res.ThroughputGainPct)
	}
	if res.LatencyChangePct >= 0 {
		t.Errorf("latency change = %.1f%%", res.LatencyChangePct)
	}
	if res.RandomChecksumLarge >= res.RandomChecksumSmall {
		t.Errorf("random checksum writes: aligned %d >= unaligned %d",
			res.RandomChecksumLarge, res.RandomChecksumSmall)
	}
}

func TestFig10Directional(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := RunFig10(quickConfig(), io.Discard)
	// Panel A: TopAA mount time flat in volume size; walk time grows.
	first, last := res.SizeSweep[0], res.SizeSweep[len(res.SizeSweep)-1]
	if last.WithTopAA != first.WithTopAA {
		t.Errorf("TopAA mount time varies with volume size: %v vs %v",
			first.WithTopAA, last.WithTopAA)
	}
	if last.WithoutTopAA < 4*first.WithoutTopAA {
		t.Errorf("walk mount time not linear-ish in size: %v -> %v",
			first.WithoutTopAA, last.WithoutTopAA)
	}
	// TopAA always far cheaper.
	for _, p := range append(res.SizeSweep, res.CountSweep...) {
		if p.WithTopAA*2 > p.WithoutTopAA {
			t.Errorf("TopAA mount %v not clearly cheaper than walk %v (vols=%d size=%d)",
				p.WithTopAA, p.WithoutTopAA, p.Vols, p.VolBlocks)
		}
	}
	// Panel B: walk time grows with volume count.
	firstB, lastB := res.CountSweep[0], res.CountSweep[len(res.CountSweep)-1]
	if lastB.WithoutTopAA <= firstB.WithoutTopAA {
		t.Errorf("walk mount time flat in volume count")
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("experiments = %d", len(all))
	}
	for _, e := range all {
		if e.Name == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
	}
	if _, err := Lookup("fig6"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown experiment resolved")
	}
}

// Each gated experiment's failing branches, driven through Experiment.Run:
// the registry's wrapper over a driver that returns a failing result must
// surface that result's gate error, and a passing result none.
func TestExperimentGates(t *testing.T) {
	walls := func(w8 time.Duration) AllocBenchResult {
		return AllocBenchResult{Wall: map[int]time.Duration{8: w8}}
	}
	matrix := func(name string, divergent int) *CrashMatrixResult {
		return &CrashMatrixResult{Name: name, Cells: []CrashCell{{}, {Divergent: divergent}}}
	}
	stub := func(r gatedResult) Experiment {
		return Experiment{Run: gated(func(Config, io.Writer) gatedResult { return r })}
	}
	storm := StormBench{Actuations: 1, WallStatic: 10, WallClosed: 10, WrittenStatic: 5, WrittenClosed: 5}
	stormWith := func(edit func(*StormBench)) StormBench {
		b := storm
		edit(&b)
		return b
	}
	for _, tc := range []struct {
		name string
		res  gatedResult
		want string // substring of the gate error, "" for a pass
	}{
		{"alloc faster", AllocBench{Shared: walls(10), Striped: walls(9)}, ""},
		{"alloc level", AllocBench{Shared: walls(10), Striped: walls(10)}, "allocbench: striped pick path not faster"},
		{"pipeline ok", PipelineBench{OverlapGain: 1.3}, ""},
		{"pipeline slow", PipelineBench{OverlapGain: 1.29}, "pipelinebench: overlap gain 1.290x below the 1.3x floor"},
		{"pipeline diverged", PipelineBench{OverlapGain: 1.5, UsedClassic: 7, UsedPipelined: 8}, "pipelinebench: arms diverged"},
		{"matrix clean", matrix("crashmatrix", 0), ""},
		{"matrix divergent", matrix("crashmatrix", 2), "crashmatrix: silent divergence in 1 of 2 cells"},
		{"overlap matrix divergent", matrix("pipelinecrash", 1), "pipelinecrash: silent divergence in 1 of 2 cells"},
		{"storm ok", storm, ""},
		{"storm idle", stormWith(func(b *StormBench) { b.Actuations = 0 }), "storm: no actuations"},
		{"storm slower", stormWith(func(b *StormBench) { b.WallClosed = 11 }), "storm: closed-loop wall 11ns exceeds static 10ns"},
		{"storm diverged", stormWith(func(b *StormBench) { b.WrittenClosed = 6 }), "storm: arms diverged"},
	} {
		_, err := stub(tc.res).Run(quickConfig(), io.Discard)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: gate failed: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: gate error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestPrintCurvesRendersColumns(t *testing.T) {
	var buf bytes.Buffer
	c := Curve{Label: "x", Points: []CurvePoint{{Clients: 1, Throughput: 100, LatencyMs: 2}}}
	printCurves(&buf, "demo", []Curve{c})
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "x ops/s") {
		t.Fatalf("output:\n%s", out)
	}
	// Empty curves don't crash.
	printCurves(io.Discard, "empty", nil)
}

func TestMeasurementPanicsWithoutOps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty measurement did not panic")
		}
	}()
	measurement{}.centers(1, 1)
}

func TestAblationsDirectional(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := RunAblations(quickConfig(), io.Discard)

	// HBPS regret is always within the structural bound and grows with the
	// bin width.
	for _, p := range res.BinWidth {
		if p.MaxRegret > p.GuaranteeBound {
			t.Errorf("bin width %d: regret %d exceeds bound", p.BinWidth, p.MaxRegret)
		}
	}
	first, last := res.BinWidth[0], res.BinWidth[len(res.BinWidth)-1]
	if first.MeanRegret >= last.MeanRegret {
		t.Errorf("mean regret not increasing with bin width: %.1f vs %.1f",
			first.MeanRegret, last.MeanRegret)
	}

	// Smaller AAs give at least as good pick quality, at more cache memory.
	if len(res.AASize) < 2 {
		t.Fatal("AA size sweep empty")
	}
	if res.AASize[0].PickedFreeFraction+0.02 < res.AASize[1].PickedFreeFraction {
		t.Errorf("smaller AA picked worse: %.3f vs %.3f",
			res.AASize[0].PickedFreeFraction, res.AASize[1].PickedFreeFraction)
	}
	if res.AASize[0].HeapBytes <= res.AASize[len(res.AASize)-1].HeapBytes {
		t.Error("smaller AAs should cost more cache memory")
	}

	// The bias exists at every threshold (fresh groups always favored).
	for _, p := range res.Threshold {
		if p.FreshToAgedRatio <= 1.0 {
			t.Errorf("threshold %.2f: fresh/aged ratio %.2f", p.Threshold, p.FreshToAgedRatio)
		}
	}
}
