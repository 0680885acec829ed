package wafl

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/heapcache"
	"waflfs/internal/obs"
	"waflfs/internal/obs/picks"
)

// shardedRun drives a fill + churn + remount workload with the striped
// allocator enabled (AllocShards > 1), every deterministic sink on, and the
// watchdogs strict — any invariant violation panics the test. Mid-workload
// scrubs exercise the ledger-aware invariant while deltas are pending.
func shardedRun(t *testing.T, workers, shards, batch int) (*System, *obs.Tracer, *strings.Builder) {
	t.Helper()
	tracer := obs.NewTracer()
	var csv strings.Builder
	rec := obs.NewCSVRecorder(&csv)
	tun := DefaultTunables()
	tun.Workers = workers
	tun.AllocShards = shards
	tun.AllocBatch = batch
	tun.CPEveryOps = 1 << 30
	tun.DelayedVirtFrees = true
	tun.Obs = &ObsOptions{
		Name:      "striped",
		Tracer:    tracer,
		CSV:       rec,
		Picks:     picks.NewRecorder(picks.DefaultConfig()),
		Watchdogs: true,
	}
	s := NewSystem(testSpecs(),
		[]VolSpec{{Name: "va", Blocks: 16 * aa.RAIDAgnosticBlocks}},
		tun, 11)
	strictWatchdogs(t, s)
	lun := s.Agg.Vols()[0].CreateLUN("lun", 40000)

	for lba := uint64(0); lba < 40000; lba++ {
		s.Write(lun, lba, 1)
		if s.pendingBlocks >= 8192 {
			s.CP()
		}
	}
	if r := s.Agg.Scrub(); !r.Clean() {
		t.Fatalf("mid-workload scrub diverged: %s", r)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 15000; i++ {
		s.Write(lun, uint64(rng.Intn(40000)), 1)
		if s.pendingBlocks >= 8192 {
			s.CP()
		}
	}
	s.CP()
	s.Agg.Remount(true)
	s.Agg.CompleteBackgroundFill()
	if r := s.Agg.Scrub(); !r.Clean() {
		t.Fatalf("post-remount scrub diverged: %s", r)
	}
	for i := 0; i < 3000; i++ {
		s.Write(lun, uint64(rng.Intn(40000)), 1)
	}
	s.CP()
	if r := s.Agg.Scrub(); !r.Clean() {
		t.Fatalf("final scrub diverged: %s", r)
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("csv flush: %v", err)
	}
	return s, tracer, &csv
}

// The striped allocator preserves the worker-width determinism contract:
// with AllocShards=8 every stable metric, trace event, CSV row, and
// allocation profile is bit-identical at Workers=1 and Workers=8. The shard
// assignment is keyed by (space, pick sequence), never by worker identity.
func TestShardedSerialEquivalence(t *testing.T) {
	s1, tr1, csv1 := shardedRun(t, 1, 8, 4)
	s8, tr8, csv8 := shardedRun(t, 8, 8, 4)

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

	ev1, ev8 := tr1.Events(), tr8.Events()
	if len(ev1) == 0 {
		t.Fatal("tracer recorded no events")
	}
	if !reflect.DeepEqual(ev1, ev8) {
		n := len(ev1)
		if len(ev8) < n {
			n = len(ev8)
		}
		for i := 0; i < n; i++ {
			if ev1[i] != ev8[i] {
				t.Fatalf("event %d diverged:\nworkers=1: %+v\nworkers=8: %+v", i, ev1[i], ev8[i])
			}
		}
		t.Fatalf("event counts diverged: %d vs %d", len(ev1), len(ev8))
	}

	if csv1.String() != csv8.String() {
		t.Fatal("per-CP CSV output diverged across worker counts")
	}

	// The full allocation profile — per-shard busy vectors included — is
	// worker-invariant; only AllocPickWall's schedule depends on W.
	if p1, p8 := s1.Agg.AllocProfiles(), s8.Agg.AllocProfiles(); !reflect.DeepEqual(p1, p8) {
		t.Fatalf("alloc profiles diverged:\nworkers=1: %+v\nworkers=8: %+v", p1, p8)
	}
}

// Refill under pressure: a tiny batch with churn forces the pipeline through
// every path — pipelined stages, standby swaps, synchronous stalls — while
// strict watchdogs and mid-workload scrubs hold. The shared structures must
// never be bypassed into the bitmap fallback.
func TestShardedRefillUnderPressure(t *testing.T) {
	// No remount in this run: a remount drops whatever the pick queues held,
	// and this test wants every staged batch to be consumed or swapped in.
	tun := DefaultTunables()
	tun.AllocShards = 4
	tun.AllocBatch = 2
	tun.CPEveryOps = 1 << 30
	tun.Obs = &ObsOptions{
		Name:      "pressure",
		Picks:     picks.NewRecorder(picks.DefaultConfig()),
		Watchdogs: true,
	}
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 11)
	strictWatchdogs(t, s)
	lun := s.Agg.Vols()[0].CreateLUN("lun", 40000)
	rng := rand.New(rand.NewSource(7))
	for lba := uint64(0); lba < 40000; lba++ {
		s.Write(lun, lba, 1)
		if s.pendingBlocks >= 8192 {
			s.CP()
		}
	}
	for i := 0; i < 15000; i++ {
		s.Write(lun, uint64(rng.Intn(40000)), 1)
		if s.pendingBlocks >= 8192 {
			s.CP()
		}
	}
	s.CP()
	if r := s.Agg.Scrub(); !r.Clean() {
		t.Fatalf("scrub diverged under refill pressure: %s", r)
	}

	var picksTot, local, staged, stalls uint64
	for _, p := range s.Agg.AllocProfiles() {
		picksTot += p.Picks
		local += p.LocalPicks
		staged += p.Staged
		stalls += p.Stalls
	}
	if picksTot == 0 || local == 0 {
		t.Fatalf("striped path unused: picks=%d local=%d", picksTot, local)
	}
	if staged == 0 {
		t.Errorf("pipelined refill never staged (staged=%d)", staged)
	}
	var swaps uint64
	for _, g := range s.Agg.groups {
		swaps += g.q.Metrics().Swaps
	}
	if swaps == 0 {
		t.Errorf("standby batches never swapped in (swaps=%d)", swaps)
	}
	if n, ok := s.Registry().Value("picks." + string(picks.ShardLocal)); !ok || n == 0 {
		t.Errorf("picks.shard_local = %d,%v, want > 0", n, ok)
	}
	if n, _ := s.Registry().Value("picks." + string(picks.BitmapFallback)); n != 0 {
		t.Errorf("picks.bitmap_fallback = %d, want 0 (cache path bypassed)", n)
	}
	if n, ok := s.Registry().Value("watchdog.ledger_checks"); !ok || n == 0 {
		t.Errorf("watchdog.ledger_checks = %d,%v, want > 0", n, ok)
	}
	if n, _ := s.Registry().Value("watchdog.violations"); n != 0 {
		t.Errorf("watchdog.violations = %d, want 0: %v", n, s.Agg.WatchdogViolations())
	}

	// The modeled pick wall must shrink when shard-local picks spread over
	// more workers, and never below the serial time divided by the width.
	w1, w8 := s.Agg.AllocPickWall(1), s.Agg.AllocPickWall(8)
	if !(w8 < w1) {
		t.Errorf("AllocPickWall: w8=%v not < w1=%v under pressure", w8, w1)
	}
	_ = stalls
}

// A tampered frozen score in a shard queue is exactly the "stale merge"
// failure the ledger watchdog class exists to catch: the next watchdog pass
// must flag it, and a scrub must report the divergence.
func TestShardedWatchdogCatchesTamperedHeldScore(t *testing.T) {
	tun := DefaultTunables()
	tun.AllocShards = 4
	tun.CPEveryOps = 1 << 30
	tun.Obs = &ObsOptions{Name: "tamper", Watchdogs: true}
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 3)
	lun := s.Agg.Vols()[0].CreateLUN("lun", 20000)
	for lba := uint64(0); lba < 20000; lba++ {
		s.Write(lun, lba, 1)
		if s.pendingBlocks >= 8192 {
			s.CP()
		}
	}
	s.CP()
	s.runWatchdogs()
	if n, _ := s.Registry().Value("watchdog.ledger_violations"); n != 0 {
		t.Fatalf("pre-tamper ledger violations = %d, want 0: %v", n, s.Agg.WatchdogViolations())
	}

	tampered := false
	for _, g := range s.Agg.groups {
		if g.q.Tamper(func(e *heapcache.Entry, _ *uint64) { e.Score += 3 }) {
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no shard queue held an entry to tamper with")
	}
	s.runWatchdogs()
	if n, _ := s.Registry().Value("watchdog.ledger_violations"); n == 0 {
		t.Error("tampered held score not flagged by the ledger watchdog")
	}
	if r := s.Agg.Scrub(); r.Clean() {
		t.Error("scrub reported clean over a tampered shard queue")
	}
}

// Ledger residue after the CP fold — a delta that never merged — must be
// flagged for both cache kinds (group ledgers and agnostic-space ledgers).
func TestShardedWatchdogCatchesLedgerResidue(t *testing.T) {
	tun := DefaultTunables()
	tun.AllocShards = 4
	tun.CPEveryOps = 1 << 30
	tun.Obs = &ObsOptions{Name: "residue", Watchdogs: true}
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 3)
	lun := s.Agg.Vols()[0].CreateLUN("lun", 12000)
	for lba := uint64(0); lba < 12000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()

	g := s.Agg.groups[0]
	g.as.ledgers[1].add(aa.ID(0), 5)
	s.runWatchdogs()
	n, _ := s.Registry().Value("watchdog.ledger_violations")
	if n == 0 {
		t.Error("group ledger residue not flagged after the CP fold")
	}
	g.as.ledgers[1].delete(aa.ID(0))

	sp := s.Agg.Vols()[0].space
	sp.as.ledgers[2].add(aa.ID(1), -2)
	s.runWatchdogs()
	if n2, _ := s.Registry().Value("watchdog.ledger_violations"); n2 <= n {
		t.Error("space ledger residue not flagged after the CP fold")
	}
}

// Segment cleaning interoperates with the striped path: the shard queues
// flush back so the cleaner pops the true best AAs, and the restaged queues
// still satisfy the scrub invariant — including with frees pending in the
// ledgers from the churn since the last CP.
func TestShardedCleanerRoundTrip(t *testing.T) {
	tun := DefaultTunables()
	tun.AllocShards = 4
	tun.AllocBatch = 4
	tun.Obs = &ObsOptions{Name: "clean", Watchdogs: true}
	s, lun := agedSystem(t, tun, 9)
	strictWatchdogs(t, s)
	rng := rand.New(rand.NewSource(1))
	st := s.CleanBestAAs(s.Agg.groups[0], 8)
	if st.AAsCleaned+st.AlreadyEmpty == 0 {
		t.Fatalf("cleaner did nothing: %+v", st)
	}
	if r := s.Agg.Scrub(); !r.Clean() {
		t.Fatalf("scrub diverged after cleaning: %s", r)
	}
	for i := 0; i < 5000; i++ {
		s.Write(lun, uint64(rng.Intn(int(lun.Blocks()))), 1)
	}
	s.CP()
	checkConsistency(t, s)
	if r := s.Agg.Scrub(); !r.Clean() {
		t.Fatalf("scrub diverged after post-clean churn: %s", r)
	}
}
