package wafl

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/control"
	"waflfs/internal/obs"
	"waflfs/internal/obs/fragscan"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/picks"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
)

// obsRun drives a moderate workload — fill, churn, CPs, delayed frees, a
// seeded remount, and a fallback remount — with every observability sink
// enabled, and returns the system, its fragscan recorder, the CPStats of
// every CP and the MountStats of the seeded and the walk remount.
func obsRun(t *testing.T, workers int) (*System, *fragscan.Recorder, []CPStats, []MountStats) {
	return obsRunMode(t, workers, false)
}

func obsRunMode(t *testing.T, workers int, pipeline bool) (*System, *fragscan.Recorder, []CPStats, []MountStats) {
	t.Helper()
	frag := fragscan.NewRecorder()
	tun := DefaultTunables()
	tun.Workers = workers
	tun.CPEveryOps = 1 << 30 // CP only when the test says so, so all CPStats are captured
	tun.DelayedVirtFrees = true
	tun.Pipeline = pipeline
	// A harness portfolio that is guaranteed to actuate mid-run: cp.count
	// breaches from CP 4 on (stepping fragscan sampling until its max
	// clamps, so the stream holds both fired and suppressed decisions), and
	// the per-volume pick counters breach once warm (stepping the allocator
	// batch, exercising the wildcard expansion and exemplar join).
	ctlPols, err := control.ParsePolicies(
		"name=scan_backoff,signal=cp.count,op=>,value=3,hold=2,action=frag_every,step=+1,max=4;" +
			"name=vol_batch,signal=vol.*.alloc.picks,op=>,value=1000,hold=3,action=alloc_batch,step=+8,max=32")
	if err != nil {
		t.Fatalf("control policies: %v", err)
	}
	tun.Obs = &ObsOptions{
		Name:      "arm",
		Export:    obs.NewRegistry(),
		Frag:      frag,
		TSDB:      tsdb.NewStore(tsdb.Config{Capacity: 512, HistBuckets: tsdb.SuffixFilter(".lat_ns")}),
		Picks:     picks.NewRecorder(picks.DefaultConfig()),
		Watchdogs: true,
		SLO:       slo.NewSet(slo.DefaultSpecs()),
		OpTrace:   optrace.NewRecorder(optrace.Config{Rate: 4, Capacity: 128, Seed: 11}),
		Control:   control.NewSet(ctlPols),
	}
	s := NewSystem(testSpecs(),
		[]VolSpec{
			{Name: "va", Blocks: 16 * aa.RAIDAgnosticBlocks},
			{Name: "vb", Blocks: 16 * aa.RAIDAgnosticBlocks},
		}, tun, 11)
	lunA := s.Agg.Vols()[0].CreateLUN("lunA", 60000)
	lunB := s.Agg.Vols()[1].CreateLUN("lunB", 60000)

	var cps []CPStats
	record := func() { cps = append(cps, s.CP()) }
	for lba := uint64(0); lba < 60000; lba++ {
		s.Write(lunA, lba, 1)
		s.Write(lunB, lba, 1)
		if s.pendingBlocks >= 8192 {
			record()
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		s.Write(lunA, uint64(rng.Intn(60000)), 1)
		s.Write(lunB, uint64(rng.Intn(60000)), 1)
		if s.pendingBlocks >= 8192 {
			record()
		}
	}
	record()
	s.Drain() // no-op classic; commits the in-flight generation pipelined
	mounts := []MountStats{s.Agg.Remount(true)}
	for i := 0; i < 3000; i++ {
		s.Write(lunA, uint64(rng.Intn(60000)), 1)
	}
	for i := 0; i < 500; i++ { // exercise the read-side latency SLI
		s.Read(lunA, uint64(rng.Intn(59000)), 4)
	}
	record()
	s.Drain()
	mounts = append(mounts, s.Agg.Remount(false))
	return s, frag, cps, mounts
}

// The derived-view contract: the registry never stores a second copy of any
// counter, so reconstructing Counters and the summed CPStats from a snapshot
// must reproduce the struct-returning APIs exactly.
func TestRegistryDerivedViewEquivalence(t *testing.T) {
	s, _, cps, _ := obsRun(t, 0)

	got := CountersFromSnapshot(s.Registry().Snapshot())
	if got != s.Counters() {
		t.Errorf("CountersFromSnapshot mismatch:\nsnapshot: %+v\nstruct:   %+v", got, s.Counters())
	}

	var want CPStats
	for _, st := range cps {
		want.MetafilePagesAggregate += st.MetafilePagesAggregate
		want.MetafilePagesVols += st.MetafilePagesVols
		want.DeviceBusy += st.DeviceBusy
		want.FlushWall += st.FlushWall
		want.TopAABlocks += st.TopAABlocks
	}
	if gotCP := CPStatsFromRegistry(s.Registry()); gotCP != want {
		t.Errorf("CPStatsFromRegistry mismatch:\nregistry: %+v\nsummed:   %+v", gotCP, want)
	}
	if n, ok := s.Registry().Value("cp.count"); !ok || n != uint64(len(cps)) {
		t.Errorf("cp.count = %d,%v, want %d", n, ok, len(cps))
	}
	if n, ok := s.Registry().Value("wafl.cps"); !ok || n != uint64(len(cps)) {
		t.Errorf("wafl.cps = %d,%v, want %d", n, ok, len(cps))
	}
}

// The determinism contract with every sink enabled: stable metric snapshots
// and every per-CP stream are bit-identical for Workers=1 and Workers=8.
func TestObsSerialEquivalence(t *testing.T) {
	s1, frag1, cps1, _ := obsRun(t, 1)
	s8, frag8, cps8, _ := obsRun(t, 8)

	// FlushWall is the one field the Workers knob is supposed to change;
	// every other CPStats field must match.
	if len(cps1) != len(cps8) {
		t.Fatalf("CP counts diverged: %d vs %d", len(cps1), len(cps8))
	}
	for i := range cps1 {
		a, b := cps1[i], cps8[i]
		a.FlushWall, b.FlushWall = 0, 0
		if a != b {
			t.Fatalf("CP %d stats diverged: %+v vs %+v", i, a, b)
		}
	}
	snap1 := s1.Registry().StableSnapshot()
	snap8 := s8.Registry().StableSnapshot()
	if !reflect.DeepEqual(snap1, snap8) {
		for i := range snap1.Metrics {
			if i < len(snap8.Metrics) && !reflect.DeepEqual(snap1.Metrics[i], snap8.Metrics[i]) {
				t.Errorf("metric %q: workers=1 %+v, workers=8 %+v",
					snap1.Metrics[i].Name, snap1.Metrics[i], snap8.Metrics[i])
			}
		}
		t.Fatalf("stable snapshots diverged (%d vs %d metrics)", len(snap1.Metrics), len(snap8.Metrics))
	}

	// Fragmentation analytics obey the same contract: report streams and
	// their CSV serialization are identical at any worker width.
	rep1, rep8 := frag1.Reports(), frag8.Reports()
	if len(rep1) == 0 {
		t.Fatal("fragscan recorded no reports")
	}
	if !reflect.DeepEqual(rep1, rep8) {
		n := len(rep1)
		if len(rep8) < n {
			n = len(rep8)
		}
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(rep1[i], rep8[i]) {
				t.Fatalf("fragscan report %d diverged:\nworkers=1: %+v\nworkers=8: %+v", i, rep1[i], rep8[i])
			}
		}
		t.Fatalf("fragscan report counts diverged: %d vs %d", len(rep1), len(rep8))
	}
	var fcsv1, fcsv8 strings.Builder
	if err := frag1.WriteCSV(&fcsv1); err != nil {
		t.Fatal(err)
	}
	if err := frag8.WriteCSV(&fcsv8); err != nil {
		t.Fatal(err)
	}
	if fcsv1.String() != fcsv8.String() {
		t.Fatal("fragscan CSV diverged across worker counts")
	}
	// One report stream per RAID group and per volume (this system has no
	// object pool).
	spaces := map[string]bool{}
	for _, r := range rep1 {
		spaces[r.Space] = true
	}
	for _, want := range []string{"arm.rg0", "arm.rg1", "arm.vol.va", "arm.vol.vb"} {
		if !spaces[want] {
			t.Errorf("no fragscan reports for space %q (have %v)", want, spaces)
		}
	}

	// The time-series store obeys the contract too: modeled-clock timestamps
	// and non-volatile samples only, so serialized stores are byte-identical.
	ts1, ts8 := s1.Agg.obsOpts.TSDB, s8.Agg.obsOpts.TSDB
	if ts1.NumSeries() == 0 {
		t.Fatal("tsdb recorded no series")
	}
	var tj1, tj8 strings.Builder
	if err := ts1.WriteJSON(&tj1); err != nil {
		t.Fatal(err)
	}
	if err := ts8.WriteJSON(&tj8); err != nil {
		t.Fatal(err)
	}
	if tj1.String() != tj8.String() {
		names1, names8 := ts1.SeriesNames(), ts8.SeriesNames()
		if !reflect.DeepEqual(names1, names8) {
			t.Fatalf("tsdb series names diverged: %d vs %d", len(names1), len(names8))
		}
		for _, n := range names1 {
			if !reflect.DeepEqual(ts1.Points(n), ts8.Points(n)) {
				t.Errorf("tsdb series %q diverged across worker counts", n)
			}
		}
		t.Fatal("tsdb JSON diverged across worker counts")
	}

	// SLO evaluation streams are part of the contract: instance states,
	// burn rates, budget accounting, and transition logs are byte-identical
	// at any worker width. (The per-CP burn-rate and state series the
	// engine writes back into the store ride the tsdb comparison above.)
	slo1, slo8 := s1.Agg.obsOpts.SLO, s8.Agg.obsOpts.SLO
	if slo1.Totals().Evaluations == 0 {
		t.Fatal("slo engine never evaluated")
	}
	if slo1.Totals().Instances == 0 {
		t.Fatal("slo engine resolved no instances")
	}
	var sj1, sj8 strings.Builder
	if err := slo1.WriteJSON(&sj1); err != nil {
		t.Fatal(err)
	}
	if err := slo8.WriteJSON(&sj8); err != nil {
		t.Fatal(err)
	}
	if sj1.String() != sj8.String() {
		t.Fatalf("slo status diverged across worker counts:\n%s\nvs\n%s", sj1.String(), sj8.String())
	}

	// The closed-loop actuation stream is part of the contract: the harness
	// portfolio fires (and clamps) mid-run, so knob trajectories, instance
	// states, decision records with exemplar joins, and transition logs must
	// all be byte-identical at any worker width. (The per-CP control.*.state
	// and control.knob.* series ride the tsdb comparison above.)
	c1, c8 := s1.Agg.obsOpts.Control, s8.Agg.obsOpts.Control
	ctot := c1.Totals()
	if ctot.Evaluations == 0 {
		t.Fatal("controller never evaluated")
	}
	if ctot.Actuations == 0 {
		t.Fatal("harness portfolio never actuated — the test is not exercising the loop")
	}
	if ctot.Suppressed == 0 {
		t.Fatal("harness portfolio never clamped — the suppression path is untested")
	}
	var cj1, cj8 strings.Builder
	if err := c1.WriteJSON(&cj1); err != nil {
		t.Fatal(err)
	}
	if err := c8.WriteJSON(&cj8); err != nil {
		t.Fatal(err)
	}
	if cj1.String() != cj8.String() {
		t.Fatalf("control status diverged across worker counts:\n%s\nvs\n%s", cj1.String(), cj8.String())
	}
	// The knob trajectory actually landed on the live surface and the clamp
	// held: frag_every walked 1→4 and stopped at the policy max.
	for i, s := range []*System{s1, s8} {
		if v, ok := s.Actuator().Knob(control.KnobFragEvery); !ok || v != 4 {
			t.Errorf("system %d: frag_every knob = %v,%v, want 4", i, v, ok)
		}
	}

	// Pick-provenance streams replay in canonical order at any worker width.
	p1, p8 := s1.Agg.obsOpts.Picks, s8.Agg.obsOpts.Picks
	if n, _ := s1.Registry().Value("picks.recorded"); n == 0 {
		t.Fatal("no pick records")
	}
	var pj1, pj8 strings.Builder
	if err := p1.WriteJSON(&pj1); err != nil {
		t.Fatal(err)
	}
	if err := p8.WriteJSON(&pj8); err != nil {
		t.Fatal(err)
	}
	if pj1.String() != pj8.String() {
		t.Fatal("pick JSON diverged across worker counts")
	}

	// The op-trace stream is part of the contract: sampling decisions, trace
	// IDs, span trees (including pick annotations and device leaf spans),
	// and exemplars are byte-identical at any worker width.
	ot1, ot8 := s1.Agg.obsOpts.OpTrace, s8.Agg.obsOpts.OpTrace
	if ot1.TotalSampled() == 0 {
		t.Fatal("optrace sampled no ops")
	}
	var oj1, oj8 strings.Builder
	if err := ot1.WriteJSON(&oj1, optrace.Filter{}); err != nil {
		t.Fatal(err)
	}
	if err := ot8.WriteJSON(&oj8, optrace.Filter{}); err != nil {
		t.Fatal(err)
	}
	if oj1.String() != oj8.String() {
		t.Fatal("optrace JSON diverged across worker counts")
	}
	// Sampled write traces stamp their IDs into the volume's pick records,
	// cross-referencing the two provenance streams.
	var pdoc struct {
		Spaces []struct {
			Records []picks.PickRecord `json:"records"`
		} `json:"spaces"`
	}
	if err := json.Unmarshal([]byte(pj1.String()), &pdoc); err != nil {
		t.Fatal(err)
	}
	sawTID := false
	for _, sp := range pdoc.Spaces {
		for _, r := range sp.Records {
			sawTID = sawTID || r.TraceID != 0
		}
	}
	if !sawTID {
		t.Error("no pick record carries a sampled trace ID")
	}

	// The watchdogs checked real invariants on every CP and found nothing.
	for i, s := range []*System{s1, s8} {
		reg := s.Registry()
		if n, _ := reg.Value("watchdog.checks"); n == 0 {
			t.Errorf("system %d: watchdog.checks = 0 with watchdogs enabled", i)
		}
		if n, _ := reg.Value("watchdog.pick_checks"); n == 0 {
			t.Errorf("system %d: watchdog.pick_checks = 0", i)
		}
		if n, _ := reg.Value("watchdog.violations"); n != 0 {
			t.Errorf("system %d: watchdog.violations = %d: %v", i, n, s.Agg.WatchdogViolations())
		}
	}
}

// The attribution contract: for every volume, the per-stage attributed
// nanoseconds sum to the lat_ns histogram's observed total exactly — not
// within tolerance, to the nanosecond — on both the read path (base +
// device) and the write path (the CP stage split, where the device stage
// absorbs the integer rounding remainder).
func TestAttributionReconciles(t *testing.T) {
	s, _, _, _ := obsRun(t, 0)
	for _, v := range s.Agg.Vols() {
		sp := v.space
		var attrSum uint64
		for _, stage := range optrace.Stages() {
			attrSum += sp.attr[stage]
		}
		hist := sp.lat.Value()
		if hist.Count == 0 {
			t.Fatalf("vol %s: latency histogram is empty", v.Name)
		}
		if attrSum != hist.Sum {
			t.Errorf("vol %s: attributed %d ns != histogram-observed %d ns (diff %d)",
				v.Name, attrSum, hist.Sum, int64(attrSum)-int64(hist.Sum))
		}
	}
	// The same totals surface as vol.<name>.attr.<stage>_ns metrics.
	snap := s.Registry().StableSnapshot()
	var attrVA, histVA uint64
	for _, m := range snap.Metrics {
		if strings.HasPrefix(m.Name, "vol.va.attr.") && strings.HasSuffix(m.Name, "_ns") {
			attrVA += m.Value
		}
		if m.Name == "vol.va.lat_ns" && m.Hist != nil {
			histVA = m.Hist.Sum
		}
	}
	if attrVA == 0 || attrVA != histVA {
		t.Errorf("registry attr sum %d != histogram sum %d", attrVA, histVA)
	}
}

// Sampled traces decompose into the documented span stages, and every
// recorded write trace's top-level stage durations sum to its latency.
func TestTraceSpansSumToLatency(t *testing.T) {
	s, _, _, _ := obsRun(t, 0)
	rec := s.Agg.obsOpts.OpTrace
	checked := 0
	for _, space := range rec.Spaces() {
		for _, tr := range rec.Traces(space) {
			var sum uint64
			for _, sp := range tr.Spans {
				sum += sp.DurNS
			}
			if sum != tr.LatNS {
				t.Errorf("trace %#x (%s %s seq %d): span sum %d != latency %d",
					tr.ID, tr.Space, tr.Kind, tr.Seq, sum, tr.LatNS)
			}
			if tr.ID == 0 {
				t.Errorf("trace with zero ID in %s", space)
			}
			if len(tr.CriticalPath()) == 0 && tr.LatNS > 0 {
				t.Errorf("trace %#x: empty critical path", tr.ID)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no traces recorded")
	}
	if rec.TotalSampled() == 0 {
		t.Fatal("TotalSampled = 0")
	}
}

// The export mirror shares instruments: two systems with distinct names in
// one export registry, prefixed and live.
func TestExportMirrorPrefixes(t *testing.T) {
	export := obs.NewRegistry()
	mk := func(name string) *System {
		tun := DefaultTunables()
		tun.CPEveryOps = 1 << 30
		tun.Obs = &ObsOptions{Name: name, Export: export}
		return NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 3)
	}
	sa, sb := mk("armA"), mk("armB")
	lun := sa.Agg.Vols()[0].CreateLUN("l", 4096)
	for lba := uint64(0); lba < 4096; lba++ {
		sa.Write(lun, lba, 1)
	}
	sa.CP()

	if n, ok := export.Value("armA.wafl.cps"); !ok || n != 1 {
		t.Errorf("armA.wafl.cps = %d,%v, want 1", n, ok)
	}
	if n, ok := export.Value("armB.wafl.cps"); !ok || n != 0 {
		t.Errorf("armB.wafl.cps = %d,%v, want 0", n, ok)
	}
	if got := CountersFromSnapshot(sb.Registry().Snapshot()); got != sb.Counters() {
		t.Errorf("armB derived view broken: %+v vs %+v", got, sb.Counters())
	}
}

// With no ObsOptions the registry still serves derived views, no sink is
// fed, and the workload runs exactly as before.
func TestObsDisabledByDefault(t *testing.T) {
	tun := DefaultTunables()
	tun.CPEveryOps = 1 << 30
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 3)
	lun := s.Agg.Vols()[0].CreateLUN("l", 4096)
	for lba := uint64(0); lba < 4096; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	if len(s.Agg.pickRings) != 0 || len(s.Agg.otRings) != 0 {
		t.Fatal("pick or op-trace rings armed with Obs unset")
	}
	if got := CountersFromSnapshot(s.Registry().Snapshot()); got != s.Counters() {
		t.Errorf("derived view broken with obs off: %+v vs %+v", got, s.Counters())
	}
	if n, ok := s.Registry().Value("rg0.picks"); !ok || n == 0 {
		t.Errorf("rg0.picks = %d,%v, want > 0", n, ok)
	}
}

// Mount totals surface through the registry, matching the MountStats the
// calls returned: the seeded remount loads every TopAA metafile and walks no
// bitmap, the walk remount reads bitmap pages and no metafile, and neither
// falls back.
func TestMountMetrics(t *testing.T) {
	s, _, _, mounts := obsRun(t, 0)
	seeded, walk := mounts[0], mounts[1]
	if seeded.TopAABlockReads == 0 || seeded.BitmapPagesRead != 0 || seeded.Fallbacks != 0 {
		t.Errorf("seeded remount = %+v, want metafile reads, no bitmap pages, no fallback", seeded)
	}
	if walk.TopAABlockReads != 0 || walk.BitmapPagesRead == 0 || walk.Fallbacks != 0 {
		t.Errorf("walk remount = %+v, want bitmap pages, no metafile reads, no fallback", walk)
	}
	reg := s.Registry()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"mount.count", 2},
		{"mount.topaa_block_reads", seeded.TopAABlockReads + walk.TopAABlockReads},
		{"mount.bitmap_pages_read", seeded.BitmapPagesRead + walk.BitmapPagesRead},
		{"mount.cache_inserts", seeded.CacheInserts + walk.CacheInserts},
		{"mount.fallbacks", 0},
	} {
		if n, ok := reg.Value(c.name); !ok || n != c.want {
			t.Errorf("%s = %d,%v, want %d", c.name, n, ok, c.want)
		}
	}
}
