package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/control"
	"waflfs/internal/obs"
	"waflfs/internal/obs/fragscan"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/parallel"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// CollectArtifact runs the canonical fig6–fig10 suite plus the allocation
// microbenchmarks and condenses the outcome into a schema-versioned
// benchmark artifact: every figure's headline metrics, fragscan
// allocation-quality summaries, per-arm modeled clocks, and provenance.
// Figure tables print to w as they complete.
//
// Every recorded value is worker-count invariant (modeled clocks, stable
// counters, fragscan output), so artifacts collected at different -parallel
// widths are identical — which is how the determinism contract is audited.
// Tolerance bands ride with each metric; benchdiff applies the baseline's
// bands.
func CollectArtifact(cfg Config, name, gitRev string, w io.Writer) (benchfmt.Artifact, error) {
	// Arm a copy of the caller's template, not the template.
	var o wafl.ObsOptions
	if cfg.Obs != nil {
		o = *cfg.Obs
	}
	cfg.Obs = &o
	if cfg.Obs.Export == nil {
		cfg.Obs.Export = obs.NewRegistry()
	}
	if cfg.Obs.Frag == nil {
		cfg.Obs.Frag = fragscan.NewRecorder()
	}
	// The invariant watchdogs ride every arm, so a full artifact collection
	// doubles as a zero-violation audit of the allocator caches.
	cfg.Obs.Watchdogs = true
	// The SLO engine rides every arm too: clean figure arms must stay
	// green while the crash matrix burns budget and pages. Modest ring
	// capacity — burn-rate windows only need recent CPs, and the suite
	// arms hundreds of systems (series grow lazily).
	if cfg.Obs.TSDB == nil {
		cfg.Obs.TSDB = tsdb.NewStore(tsdb.Config{Capacity: 128, HistBuckets: tsdb.SuffixFilter(".lat_ns")})
	}
	if cfg.Obs.SLO == nil {
		cfg.Obs.SLO = slo.NewSet(slo.DefaultSpecs())
	}
	// Op tracing rides every arm: sampled span trees feed SLO exemplars and
	// the attr.* stage counters they reconcile against. Default rate keeps
	// the rings cheap; the coverage gate below audits the attribution math.
	if cfg.Obs.OpTrace == nil {
		cfg.Obs.OpTrace = optrace.NewRecorder(optrace.Config{Rate: 16, Seed: cfg.Seed})
	}
	// The closed-loop controller rides every arm: the stock portfolio must
	// stay idle on clean arms (do-no-harm) while the crash matrix's recovery
	// pages trip the scrub-kick clause (does-act).
	if cfg.Obs.Control == nil {
		cfg.Obs.Control = control.NewSet(control.DefaultPolicies())
	}

	art := benchfmt.Artifact{
		Schema:  benchfmt.SchemaVersion,
		Name:    name,
		GitRev:  gitRev,
		Seed:    cfg.Seed,
		Scale:   cfg.Scale,
		Workers: cfg.Workers,
	}

	r6 := RunFig6(cfg, w)
	art.Add("fig6.agg_picked_on", r6.AggPickedOn, "frac", 0.10)
	art.Add("fig6.agg_picked_off", r6.AggPickedOff, "frac", 0.10)
	art.Add("fig6.vol_picked_on", r6.VolPickedOn, "frac", 0.10)
	art.Add("fig6.vol_picked_off", r6.VolPickedOff, "frac", 0.10)
	art.Add("fig6.wa_on", r6.WAOn, "x", 0.15)
	art.Add("fig6.wa_off", r6.WAOff, "x", 0.15)
	art.Add("fig6.cpu_per_op_vol_on", float64(r6.CPUPerOpVolOn), "ns", 0.15)
	art.Add("fig6.cpu_per_op_vol_off", float64(r6.CPUPerOpVolOff), "ns", 0.15)
	art.Add("fig6.cache_cpu_frac", r6.CacheCPUFraction, "frac", 0.50)
	art.Add("fig6.agg_tput_gain_pct", r6.AggThroughputGainPct, "pct", 0.35)
	art.Add("fig6.agg_latency_change_pct", r6.AggLatencyChangePct, "pct", 0.35)
	art.Add("fig6.vol_tput_gain_pct", r6.VolThroughputGainPct, "pct", 0.35)
	art.Add("fig6.vol_latency_change_pct", r6.VolLatencyChangePct, "pct", 0.35)
	addCurvePeaks(&art, "fig6", r6.Curves)

	r7 := RunFig7(cfg, w)
	art.Add("fig7.fresh_aged_ratio", r7.FreshToAgedBlockRatio, "x", 0.25)
	if n := len(r7.BlocksPerTetris) / 2; n > 0 {
		art.Add("fig7.blocks_per_tetris_aged", mean(r7.BlocksPerTetris[:n]), "blocks", 0.25)
		art.Add("fig7.blocks_per_tetris_fresh", mean(r7.BlocksPerTetris[n:]), "blocks", 0.25)
	}

	r8 := RunFig8(cfg, w)
	art.Add("fig8.wa_small", r8.WASmall, "x", 0.15)
	art.Add("fig8.wa_large", r8.WALarge, "x", 0.15)
	art.Add("fig8.tput_gain_pct", r8.ThroughputGainPct, "pct", 0.35)
	art.Add("fig8.latency_change_pct", r8.LatencyChangePct, "pct", 0.35)
	addCurvePeaks(&art, "fig8", r8.Curves)

	r9 := RunFig9(cfg, w)
	art.Add("fig9.random_cs_small", float64(r9.RandomChecksumSmall), "count", 0.10)
	art.Add("fig9.random_cs_large", float64(r9.RandomChecksumLarge), "count", 0.10)
	art.Add("fig9.interventions_small", float64(r9.InterventionsSmall), "count", 0.25)
	art.Add("fig9.interventions_large", float64(r9.InterventionsLarge), "count", 0.25)
	art.Add("fig9.tput_gain_pct", r9.ThroughputGainPct, "pct", 0.35)
	art.Add("fig9.latency_change_pct", r9.LatencyChangePct, "pct", 0.35)
	addCurvePeaks(&art, "fig9", r9.Curves)

	r10 := RunFig10(cfg, w)
	addFig10Point(&art, "fig10.size", r10.SizeSweep)
	addFig10Point(&art, "fig10.count", r10.CountSweep)

	// Crash-recovery matrices, classic and over the pipelined CP's overlap
	// window: exact counts with a zero-tolerance band — any change to how
	// recovery classifies a cell is a regression — and each sweep's own gate:
	// a single silently-divergent cache fails collection outright.
	for _, m := range []struct {
		prefix string
		run    func(Config, io.Writer) *CrashMatrixResult
	}{{"crash", RunCrashMatrix}, {"crash.pipeline", RunPipelineCrashMatrix}} {
		rc := m.run(cfg, w)
		ct := rc.Totals()
		art.Add(m.prefix+".cells", float64(len(rc.Cells)), "count", 0.001)
		art.Add(m.prefix+".divergent", float64(ct.Divergent), "count", 0.001)
		art.Add(m.prefix+".clean_loads", float64(ct.CleanLoads), "count", 0.001)
		art.Add(m.prefix+".reconstructed", float64(ct.Reconstructed), "count", 0.001)
		art.Add(m.prefix+".fallbacks", float64(ct.Fallbacks), "count", 0.001)
		art.Add(m.prefix+".stale_fallbacks", float64(ct.Stale), "count", 0.001)
		art.Add(m.prefix+".torn_fallbacks", float64(ct.Torn), "count", 0.001)
		art.Add(m.prefix+".damage_fallbacks", float64(ct.Damaged), "count", 0.001)
		if err := rc.Gate(); err != nil {
			return art, err
		}
	}

	// The pipelined-CP overlap benchmark carries its own acceptance floor:
	// pipelining that stops paying for itself or diverges from the classic
	// final state fails collection outright.
	pb := RunPipelineBench(cfg, w)
	art.Add("cp.pipeline.overlap_gain", pb.OverlapGain, "x", 0.15)
	art.Add("cp.pipeline.generations", float64(pb.Generations), "count", 0.001)
	art.Add("cp.pipeline.alloc_wall_ns", float64(pb.AllocWall), "ns", 0.15)
	art.Add("cp.pipeline.flush_wall_ns", float64(pb.FlushWall), "ns", 0.15)
	art.Add("cp.pipeline.pipelined_wall_ns", float64(pb.PipelinedWall), "ns", 0.15)
	art.Add("cp.pipeline.serial_wall_ns", float64(pb.SerialWall), "ns", 0.15)
	if err := pb.Gate(); err != nil {
		return art, err
	}

	microMetrics(cfg, &art, w)

	// Striped-allocator pick throughput (modeled): the shared arm gains
	// nothing from workers, the striped arm's shard-local picks spread.
	ab := RunAllocBench(cfg, w)
	for _, width := range allocBenchWidths {
		art.Add(fmt.Sprintf("alloc.picks_per_sec.w%d", width), ab.Striped.PicksPerSec(width), "picks/s", 0.15)
	}
	art.Add("alloc.shared_picks_per_sec.w8", ab.Shared.PicksPerSec(8), "picks/s", 0.15)
	if w8 := ab.Striped.Wall[8]; w8 > 0 {
		art.Add("alloc.speedup_w8", float64(ab.Shared.Wall[8])/float64(w8), "x", 0.20)
	}
	art.Add("alloc.stalls", float64(ab.Striped.Stalls), "count", 0.25)
	art.Add("alloc.staged_entries", float64(ab.Striped.Staged), "count", 0.25)
	if ab.Striped.Picks > 0 {
		art.Add("alloc.shard_local_frac", float64(ab.Striped.LocalPicks)/float64(ab.Striped.Picks), "frac", 0.15)
	}
	if err := ab.Gate(); err != nil {
		return art, err
	}

	// Fragscan allocation-quality summaries, one set per space stream.
	// fig10's sweeps mount dozens of tiny systems; their streams stay in
	// the recorder but are skipped here to bound artifact size.
	for _, s := range cfg.Obs.Frag.Summaries() {
		if strings.HasPrefix(s.Space, "fig10.") || strings.HasPrefix(s.Space, "crash.") {
			continue
		}
		p := "frag." + s.Space
		art.Add(p+".free_frac", s.FreeFrac, "frac", 0.10)
		art.Add(p+".mean_run", s.MeanRun, "blocks", 0.25)
		art.Add(p+".longest_run", float64(s.LongestRun), "blocks", 0.25)
		art.Add(p+".median_aa_frac", s.MedianAAFrac, "frac", 0.15)
		if s.Picks > 0 {
			art.Add(p+".picked_free_frac", s.PickedFreeFrac, "frac", 0.15)
		}
	}

	// Modeled clocks per experiment arm, read from the shared export
	// registry's stable (worker-invariant) snapshot.
	clockSuffixes := []string{".wafl.cpu_ns", ".wafl.device_busy_ns", ".wafl.cps", ".wafl.blocks_written"}
	for _, m := range cfg.Obs.Export.StableSnapshot().Metrics {
		// fig10's sweeps and the crash matrix mount dozens of tiny systems;
		// their arm clocks are excluded to bound artifact size.
		if strings.HasPrefix(m.Name, "fig10.") || strings.HasPrefix(m.Name, "crash.") || m.Kind != obs.KindCounter {
			continue
		}
		for _, suf := range clockSuffixes {
			if strings.HasSuffix(m.Name, suf) {
				art.Add("clock."+m.Name, float64(m.Value), clockUnit(suf), 0.10)
				break
			}
		}
	}

	// Watchdog audit across every arm (fig10 sweeps and the crash matrix
	// included): checks must have run, and violations are a hard failure —
	// an artifact collected over corrupted caches is worthless as a baseline.
	// The allocbench arms' checks are counted under their own metric: the
	// baseline's tolerance band wins during comparison, so folding newly
	// added arms into the legacy sum would read as drift against every
	// previously committed artifact. Violations stay global.
	var wdChecks, allocChecks, pipeChecks, wdViolations uint64
	for _, m := range cfg.Obs.Export.StableSnapshot().Metrics {
		switch {
		case strings.HasSuffix(m.Name, ".watchdog.checks"):
			switch {
			case strings.HasPrefix(m.Name, "alloc_"):
				allocChecks += m.Value
			case strings.HasPrefix(m.Name, "pipe.") || strings.HasPrefix(m.Name, "crash.pipeline."):
				// The pipelined arms (bench + overlap crash matrix) count
				// under their own metric for the same reason allocbench's
				// do: folding new arms into the legacy sum would read as
				// drift against every previously committed artifact.
				pipeChecks += m.Value
			default:
				wdChecks += m.Value
			}
		case strings.HasSuffix(m.Name, ".watchdog.violations"):
			// The global counter already includes every class counter
			// (gen/dfgen included), so this is the only suffix to sum.
			wdViolations += m.Value
		}
	}
	art.Add("watchdog.checks", float64(wdChecks), "count", 0.25)
	art.Add("watchdog.alloc_checks", float64(allocChecks), "count", 0.25)
	art.Add("watchdog.pipeline_checks", float64(pipeChecks), "count", 0.25)
	art.Add("watchdog.violations", float64(wdViolations), "count", 0.001)
	if wdChecks == 0 {
		return art, fmt.Errorf("experiments: watchdogs armed but performed no checks")
	}
	if wdViolations != 0 {
		return art, fmt.Errorf("experiments: %d watchdog violations during artifact collection", wdViolations)
	}

	// SLO audit: alert totals split by arm prefix, its own metric family
	// (like watchdog.alloc_checks) so the new rows read as additions, not
	// drift, against pre-SLO baselines. Zero-tolerance gates: any alert on
	// a clean arm or a silent crash matrix fails collection outright.
	isPipeCrash := func(sys string) bool { return strings.HasPrefix(sys, "crash.pipeline.") }
	isCrash := func(sys string) bool { return strings.HasPrefix(sys, "crash.") && !isPipeCrash(sys) }
	crashTot := cfg.Obs.SLO.TotalsWhere(isCrash)
	// The pipelined crash matrix counts under its own metric (like
	// watchdog.pipeline_checks): its pages would read as drift against
	// pre-pipeline baselines if folded into slo.pages_crash.
	pipeCrashTot := cfg.Obs.SLO.TotalsWhere(isPipeCrash)
	cleanTot := cfg.Obs.SLO.TotalsWhere(func(sys string) bool { return !strings.HasPrefix(sys, "crash.") })
	art.Add("slo.evaluations", float64(cleanTot.Evaluations+crashTot.Evaluations+pipeCrashTot.Evaluations), "count", 0.25)
	art.Add("slo.instances", float64(cleanTot.Instances+crashTot.Instances+pipeCrashTot.Instances), "count", 0.25)
	art.Add("slo.pages_clean", float64(cleanTot.Pages), "count", 0.001)
	art.Add("slo.warns_clean", float64(cleanTot.Warns), "count", 0.001)
	art.Add("slo.pages_crash", float64(crashTot.Pages), "count", 0.25)
	art.Add("slo.transitions_crash", float64(crashTot.Transitions), "count", 0.25)
	art.Add("slo.pages_crash_pipeline", float64(pipeCrashTot.Pages), "count", 0.25)
	if cleanTot.Evaluations == 0 {
		return art, fmt.Errorf("experiments: SLO engine armed but never evaluated")
	}
	if cleanTot.Pages != 0 || cleanTot.Warns != 0 {
		return art, fmt.Errorf("experiments: %d pages / %d warns on clean arms during artifact collection",
			cleanTot.Pages, cleanTot.Warns)
	}
	if crashTot.Pages == 0 {
		return art, fmt.Errorf("experiments: crash matrix fired no SLO pages — the recovery SLI is dead")
	}
	if pipeCrashTot.Pages == 0 {
		return art, fmt.Errorf("experiments: pipelined crash matrix fired no SLO pages — the overlap-window recovery SLI is dead")
	}

	// Closed-loop control families. The audit splits by arm prefix like the
	// SLO one: the stock portfolio actuating on a clean arm is a
	// zero-tolerance failure (the do-no-harm contract), while a crash matrix
	// that never trips the recovery scrub-kick clause means the controller's
	// SLO coupling is dead.
	ctlCrash := cfg.Obs.Control.TotalsWhere(func(sys string) bool { return strings.HasPrefix(sys, "crash.") })
	ctlClean := cfg.Obs.Control.TotalsWhere(func(sys string) bool { return !strings.HasPrefix(sys, "crash.") })
	art.Add("control.evaluations", float64(ctlClean.Evaluations+ctlCrash.Evaluations), "count", 0.25)
	art.Add("control.instances", float64(ctlClean.Instances+ctlCrash.Instances), "count", 0.25)
	art.Add("control.actuations_clean", float64(ctlClean.Actuations), "count", 0.001)
	art.Add("control.suppressed_clean", float64(ctlClean.Suppressed), "count", 0.001)
	art.Add("control.actuations_crash", float64(ctlCrash.Actuations), "count", 0.25)
	if ctlClean.Evaluations == 0 {
		return art, fmt.Errorf("experiments: controller armed but never evaluated")
	}
	if ctlClean.Actuations != 0 || ctlClean.Suppressed != 0 {
		return art, fmt.Errorf("experiments: stock portfolio made %d actuations / %d suppressed decisions on clean arms",
			ctlClean.Actuations, ctlClean.Suppressed)
	}
	if ctlCrash.Actuations == 0 {
		return art, fmt.Errorf("experiments: crash matrix tripped no actuations — the recovery scrub-kick clause is dead")
	}

	// Adversarial storm: the controller must actually help under attack.
	// Hard floors, not tolerance bands: a closed loop that costs wall
	// time, or never fires, fails collection outright.
	sb := RunStorm(cfg, w)
	art.Add("control.storm.evaluations", float64(sb.Evaluations), "count", 0.25)
	art.Add("control.storm.actuations", float64(sb.Actuations), "count", 0.25)
	art.Add("control.storm.suppressed", float64(sb.Suppressed), "count", 0.25)
	art.Add("control.storm.wall_static_ns", float64(sb.WallStatic), "ns", 0.10)
	art.Add("control.storm.wall_closed_ns", float64(sb.WallClosed), "ns", 0.10)
	if sb.WallStatic > 0 {
		art.Add("control.storm.wall_ratio", float64(sb.WallClosed)/float64(sb.WallStatic), "x", 0.10)
	}
	if sb.Actuations == 0 {
		return art, fmt.Errorf("experiments: storm fired no actuations — the backlog-shed clause is dead")
	}
	if sb.WallClosed > sb.WallStatic {
		return art, fmt.Errorf("experiments: closed-loop storm wall %v exceeds static %v", sb.WallClosed, sb.WallStatic)
	}
	if !sb.Identical() {
		return art, fmt.Errorf("experiments: storm arms diverged (written %d vs %d)", sb.WrittenClosed, sb.WrittenStatic)
	}

	// Op-trace audit: sampling must have fired, and the per-stage attribution
	// counters must reconcile with the latency histograms they decompose —
	// sum(vol.*.attr.*_ns) == sum(vol.*.lat_ns histogram Sum) across every
	// arm. Coverage is pinned at 1.0 with a 0.001 band; drift means a write
	// path charged latency without attributing it (or vice versa).
	var attrNS, latNS uint64
	for _, m := range cfg.Obs.Export.StableSnapshot().Metrics {
		switch {
		case m.Kind == obs.KindCounter && strings.Contains(m.Name, ".attr.") && strings.HasSuffix(m.Name, "_ns"):
			attrNS += m.Value
		case m.Kind == obs.KindHistogram && strings.HasSuffix(m.Name, ".lat_ns"):
			latNS += m.Hist.Sum
		}
	}
	sampled := cfg.Obs.OpTrace.TotalSampled()
	art.Add("optrace.sampled_ops", float64(sampled), "count", 0.25)
	art.Add("optrace.slow_sampled", float64(cfg.Obs.OpTrace.TotalSlowSampled()), "count", 0.50)
	coverage := 0.0
	if latNS > 0 {
		coverage = float64(attrNS) / float64(latNS)
	}
	art.Add("optrace.attr_coverage", coverage, "frac", 0.001)
	if sampled == 0 {
		return art, fmt.Errorf("experiments: op tracing armed but sampled no ops")
	}
	if coverage < 0.999 || coverage > 1.001 {
		return art, fmt.Errorf("experiments: attribution coverage %.6f — attr.*_ns counters do not reconcile with lat_ns histograms", coverage)
	}

	art.Sort()
	return art, art.Validate()
}

func clockUnit(suffix string) string {
	if strings.HasSuffix(suffix, "_ns") {
		return "ns"
	}
	return "count"
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// addCurvePeaks records each curve's highest-load point.
func addCurvePeaks(art *benchfmt.Artifact, fig string, curves []Curve) {
	for _, c := range curves {
		p := c.Peak()
		label := strings.ReplaceAll(c.Label, " ", "_")
		art.Add(fmt.Sprintf("%s.curve.%s.peak_tput", fig, label), p.Throughput, "ops/s", 0.15)
		art.Add(fmt.Sprintf("%s.curve.%s.peak_latency_ms", fig, label), p.LatencyMs, "ms", 0.20)
	}
}

// addFig10Point records the largest point of a mount-time sweep.
func addFig10Point(art *benchfmt.Artifact, prefix string, sweep []Fig10Point) {
	if len(sweep) == 0 {
		return
	}
	p := sweep[len(sweep)-1]
	art.Add(prefix+".topaa_reads", float64(p.TopAAReads), "count", 0.10)
	art.Add(prefix+".bitmap_pages", float64(p.BitmapPages), "count", 0.10)
	if p.WithTopAA > 0 {
		art.Add(prefix+".speedup_x", float64(p.WithoutTopAA)/float64(p.WithTopAA), "x", 0.25)
	}
}

// microMetrics runs the allocation microbenchmarks: first-CP mount cost
// seeded vs walked (the fig10 model on an aged mid-size aggregate) and CP
// flush concurrency (serial device time vs 8-way makespan — PR 1's headline
// speedup, pinned at a fixed width so the number is comparable across runs
// regardless of cfg.Workers).
func microMetrics(cfg Config, art *benchfmt.Artifact, w io.Writer) {
	tun := cfg.tunablesNamed("micro")
	per := cfg.scaled(1<<17, 1<<14)
	spec := wafl.GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: per, Media: aa.MediaHDD}
	aggBlocks := 2 * 6 * per
	lunBlocks := uint64(float64(aggBlocks) * 0.55)
	s := wafl.NewSystem([]wafl.GroupSpec{spec, spec},
		[]wafl.VolSpec{{Name: "v0", Blocks: lunBlocks * 2}}, tun, cfg.Seed)
	lun := s.Agg.Vols()[0].CreateLUN("l0", lunBlocks)
	rng := rand.New(rand.NewSource(cfg.Seed))
	workload.SequentialFill(s, lun, 1)
	s.CP()
	workload.Age(s, []*wafl.LUN{lun}, rng, 0.3)

	seeded := s.Agg.Remount(true)
	art.Add("micro.mount.seeded_reads", float64(seeded.TopAABlockReads), "count", 0.10)
	art.Add("micro.mount.seeded_ns", float64(mountTime(seeded)), "ns", 0.10)
	walk := s.Agg.Remount(false)
	art.Add("micro.mount.walk_pages", float64(walk.BitmapPagesRead), "count", 0.10)
	art.Add("micro.mount.walk_ns", float64(mountTime(walk)), "ns", 0.10)
	if st := mountTime(seeded); st > 0 {
		art.Add("micro.mount.walk_seeded_ratio", float64(mountTime(walk))/float64(st), "x", 0.25)
	}

	// A write burst, then one CP: per-group flush times give the serial
	// device cost and its 8-way makespan.
	groups := s.Agg.Groups()
	busyBefore := make([]time.Duration, len(groups))
	for i, g := range groups {
		busyBefore[i] = g.Metrics().DeviceBusy
	}
	opsBefore := s.Counters()
	workload.RandomOverwrite(s, []*wafl.LUN{lun}, rng, int(lunBlocks/4), 1)
	s.CP()
	burst := s.Counters().Sub(opsBefore)
	if burst.Ops > 0 {
		art.Add("micro.write.cpu_per_op_ns", float64(burst.CPUTime)/float64(burst.Ops), "ns", 0.10)
	}
	deltas := make([]time.Duration, len(groups))
	var serial time.Duration
	for i, g := range groups {
		deltas[i] = g.Metrics().DeviceBusy - busyBefore[i]
		serial += deltas[i]
	}
	wall8 := parallel.Makespan(deltas, 8)
	art.Add("micro.cp.flush_busy_ns", float64(serial), "ns", 0.10)
	art.Add("micro.cp.flush_wall8_ns", float64(wall8), "ns", 0.10)
	if wall8 > 0 {
		art.Add("micro.cp.flush_speedup_x", float64(serial)/float64(wall8), "x", 0.20)
	}

	// One table so the microbench shows up in the printed run, too.
	rows := []struct {
		name string
		val  float64
		unit string
	}{}
	for _, m := range art.Metrics {
		if strings.HasPrefix(m.Name, "micro.") {
			rows = append(rows, struct {
				name string
				val  float64
				unit string
			}{m.Name, m.Value, m.Unit})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Fprintln(w, "### micro — mount + CP-flush microbenchmarks")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-32s %14.1f %s\n", r.name, r.val, r.unit)
	}
	fmt.Fprintln(w)
}
