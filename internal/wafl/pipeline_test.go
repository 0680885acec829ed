package wafl

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/heapcache"
	"waflfs/internal/obs/optrace"
)

// depthSystem builds a filled, quiesced system at CP depth 1 (pipeline
// false) or 2.
func depthSystem(t *testing.T, pipeline bool, budget int) (*System, *LUN) {
	t.Helper()
	tun := DefaultTunables()
	tun.Pipeline = pipeline
	tun.DelayedVirtFrees = true
	tun.DelayedFreeBudgetPerCP = budget
	tun.CPEveryOps = 128
	tun.Obs = &ObsOptions{Name: "pipe", Watchdogs: true}
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 8 * aa.RAIDAgnosticBlocks}}, tun, 21)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 50000)
	for lba := uint64(0); lba < 20000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	s.Drain() // start each test at a quiesced boundary
	return s, lun
}

// banksAtRest fails the test if any flush bank still holds something.
func banksAtRest(t *testing.T, s *System) {
	t.Helper()
	for _, g := range s.Agg.groups {
		if g.flushDeltas.len() > 0 || len(g.flushWrites) > 0 || len(g.flushCS) > 0 {
			t.Fatalf("rg%d flush banks not empty: %d deltas, %d writes, %d checksums",
				g.Index, g.flushDeltas.len(), len(g.flushWrites), len(g.flushCS))
		}
	}
	for _, v := range s.Agg.vols {
		if v.space.flushDeltas.len() > 0 {
			t.Fatalf("volume %q: %d sealed deltas at rest", v.Name, v.space.flushDeltas.len())
		}
	}
	if p := s.Agg.pool; p != nil {
		if p.flushBlocks > 0 || p.space.flushDeltas.len() > 0 {
			t.Fatalf("pool flush banks not empty: %d blocks, %d deltas", p.flushBlocks, p.space.flushDeltas.len())
		}
	}
}

// Both depths end quiesced with every flush bank empty. Depth 1 is there
// after every CP(), which returns the generation it just wrote; a depth-2
// run ends with one generation in flight (its first CP commits nothing) and
// Drain commits it and restores every boundary invariant (bitmaps,
// refcounts, scrub).
func TestPipelinedDrainRestoresInvariants(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipeline=%v", pipeline), func(t *testing.T) {
			s, lun := depthSystem(t, pipeline, 0)
			// An object pool, so every kind of flush bank exists.
			s.Agg.AddObjectPool(PoolSpec{Blocks: 2 * aa.RAIDAgnosticBlocks})
			vol := s.Agg.Vols()[0]
			if n := s.TierOut(lun, func(lba uint64) bool { return lba < 3000 }); n != 3000 {
				t.Fatalf("tiered %d blocks", n)
			}
			rng := rand.New(rand.NewSource(7))
			var st CPStats
			for round := 0; round < 3; round++ {
				for i := 0; i < 100; i++ { // under CPEveryOps: CP only when the test says so
					s.Write(lun, uint64(rng.Intn(50000)), 1)
				}
				st = s.CP()
				if pipeline {
					if !s.InFlight() {
						t.Fatal("no generation in flight after a depth-2 CP")
					}
					if round == 0 && st.DeviceBusy != 0 {
						t.Fatalf("first depth-2 boundary committed something: %+v", st)
					}
					continue
				}
				if s.InFlight() {
					t.Fatal("generation in flight after a depth-1 CP")
				}
				if st.DeviceBusy == 0 {
					t.Fatalf("depth-1 CP %d returned empty CPStats", round)
				}
				banksAtRest(t, s)
			}
			if st = s.Drain(); (st.DeviceBusy != 0) != pipeline {
				t.Fatalf("Drain committed %+v at pipeline=%v", st, pipeline)
			}
			if s.InFlight() {
				t.Fatal("still in flight after Drain")
			}
			banksAtRest(t, s)
			if vol.PendingFrees() != 0 {
				t.Fatalf("pending frees after unlimited-budget Drain: %d", vol.PendingFrees())
			}
			if err := vol.CheckRefcounts(); err != nil {
				t.Fatal(err)
			}
			if rep := s.Agg.Scrub(); !rep.Clean() {
				t.Fatalf("scrub after Drain: %v", rep)
			}
			g := s.PipelineStats()
			if pipeline && (g.Generations == 0 || g.PipelinedWall == 0) {
				t.Fatalf("pipeline stats empty: %+v", g)
			}
			if !pipeline && g != (PipelineStats{}) {
				t.Fatalf("depth 1 touched the pipeline stats: %+v", g)
			}
			if n, _ := s.Registry().Value("watchdog.violations"); n != 0 {
				t.Fatalf("watchdog violations: %v", s.Agg.WatchdogViolations())
			}
		})
	}
}

// The pipelined and classic paths converge to the same logical filesystem
// state: same space usage, same written-block totals, clean invariants —
// the same workload differs only in when generations commit.
func TestPipelinedMatchesClassicFinalState(t *testing.T) {
	run := func(pipeline bool) *System {
		tun := DefaultTunables()
		tun.Pipeline = pipeline
		tun.DelayedVirtFrees = true
		tun.CPEveryOps = 1 << 30
		s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 8 * aa.RAIDAgnosticBlocks}}, tun, 3)
		lun := s.Agg.Vols()[0].CreateLUN("lun0", 40000)
		rng := rand.New(rand.NewSource(11))
		for lba := uint64(0); lba < 30000; lba++ {
			s.Write(lun, lba, 1)
			if s.pendingBlocks >= 4096 {
				s.CP()
			}
		}
		for i := 0; i < 15000; i++ {
			s.Write(lun, uint64(rng.Intn(30000)), 1)
			if s.pendingBlocks >= 4096 {
				s.CP()
			}
		}
		s.CP()
		s.Drain()
		return s
	}
	classic, piped := run(false), run(true)
	if a, b := classic.Agg.Bitmap().Used(), piped.Agg.Bitmap().Used(); a != b {
		t.Errorf("aggregate used diverged: classic %d, pipelined %d", a, b)
	}
	cc, pc := classic.Counters(), piped.Counters()
	if cc.BlocksWritten != pc.BlocksWritten || cc.BlocksFreed != pc.BlocksFreed || cc.Ops != pc.Ops {
		t.Errorf("counters diverged: classic %+v, pipelined %+v", cc, pc)
	}
	for _, s := range []*System{classic, piped} {
		if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
			t.Fatal(err)
		}
		if rep := s.Agg.Scrub(); !rep.Clean() {
			t.Fatalf("scrub: %v", rep)
		}
	}
	if piped.PipelineStats().Generations == 0 {
		t.Fatal("pipelined run sealed no generations")
	}
	if classic.PipelineStats().Generations != 0 {
		t.Fatal("classic run touched the pipeline state")
	}
}

// The serial-equivalence contract extends to pipelined CPs: with every
// sink enabled and pipelining on, stable snapshots, fragscan, tsdb, SLO,
// pick and optrace streams are byte-identical at Workers=1 and 8.
func TestPipelinedSerialEquivalence(t *testing.T) {
	s1, frag1, cps1, _ := obsRunMode(t, 1, true)
	s8, frag8, cps8, _ := obsRunMode(t, 8, true)

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
	if n := snap1.Counter("cp.pipeline.generations"); n == 0 {
		t.Fatal("cp.pipeline.generations = 0 in a pipelined run")
	}
	if !reflect.DeepEqual(frag1.Reports(), frag8.Reports()) {
		t.Fatal("fragscan reports diverged across worker counts")
	}
	var tj1, tj8 strings.Builder
	if err := s1.Agg.obsOpts.TSDB.WriteJSON(&tj1); err != nil {
		t.Fatal(err)
	}
	if err := s8.Agg.obsOpts.TSDB.WriteJSON(&tj8); err != nil {
		t.Fatal(err)
	}
	if tj1.String() != tj8.String() {
		t.Fatal("tsdb JSON diverged across worker counts")
	}
	var sj1, sj8 strings.Builder
	if err := s1.Agg.obsOpts.SLO.WriteJSON(&sj1); err != nil {
		t.Fatal(err)
	}
	if err := s8.Agg.obsOpts.SLO.WriteJSON(&sj8); err != nil {
		t.Fatal(err)
	}
	if sj1.String() != sj8.String() {
		t.Fatal("slo status diverged across worker counts")
	}
	var pj1, pj8 strings.Builder
	if err := s1.Agg.obsOpts.Picks.WriteJSON(&pj1); err != nil {
		t.Fatal(err)
	}
	if err := s8.Agg.obsOpts.Picks.WriteJSON(&pj8); err != nil {
		t.Fatal(err)
	}
	if pj1.String() != pj8.String() {
		t.Fatal("pick JSON diverged across worker counts")
	}
	var oj1, oj8 strings.Builder
	if err := s1.Agg.obsOpts.OpTrace.WriteJSON(&oj1, optrace.Filter{}); err != nil {
		t.Fatal(err)
	}
	if err := s8.Agg.obsOpts.OpTrace.WriteJSON(&oj8, optrace.Filter{}); err != nil {
		t.Fatal(err)
	}
	if oj1.String() != oj8.String() {
		t.Fatal("optrace JSON diverged across worker counts")
	}
	for i, s := range []*System{s1, s8} {
		reg := s.Registry()
		if n, _ := reg.Value("watchdog.gen_checks"); n == 0 {
			t.Errorf("system %d: watchdog.gen_checks = 0 in a pipelined run", i)
		}
		if n, _ := reg.Value("watchdog.dfgen_checks"); n == 0 {
			t.Errorf("system %d: watchdog.dfgen_checks = 0 in a pipelined run", i)
		}
		if n, _ := reg.Value("watchdog.violations"); n != 0 {
			t.Errorf("system %d: watchdog.violations = %d: %v", i, n, s.Agg.WatchdogViolations())
		}
	}
}

// Overlapping alloc with flush must beat the stop-the-world schedule: the
// modeled sustained-write wall is Σ max(alloc, flush) against Σ (alloc +
// flush), and at 8 workers a steady stream of full generations keeps both
// sides busy enough for ≥1.3× — the artifact's cp.pipeline.overlap_gain
// floor.
func TestPipelineOverlapGain(t *testing.T) {
	tun := DefaultTunables()
	tun.Pipeline = true
	tun.Workers = 8
	tun.CPEveryOps = 1 << 30
	vols := []VolSpec{
		{Name: "v0", Blocks: 8 * aa.RAIDAgnosticBlocks},
		{Name: "v1", Blocks: 8 * aa.RAIDAgnosticBlocks},
		{Name: "v2", Blocks: 8 * aa.RAIDAgnosticBlocks},
		{Name: "v3", Blocks: 8 * aa.RAIDAgnosticBlocks},
	}
	s := NewSystem(testSpecs(), vols, tun, 17)
	luns := make([]*LUN, len(vols))
	for i, v := range s.Agg.Vols() {
		luns[i] = v.CreateLUN("l", 40000)
	}
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 12; round++ {
		for i := 0; i < 4000; i++ {
			s.Write(luns[rng.Intn(len(luns))], uint64(rng.Intn(40000)), 1)
		}
		s.CP()
	}
	s.Drain()
	ps := s.PipelineStats()
	if ps.Generations != 12 {
		t.Fatalf("generations = %d, want 12", ps.Generations)
	}
	if gain := ps.OverlapGain(); gain < 1.3 {
		t.Errorf("overlap gain %.3f < 1.3 (alloc %v, flush %v)", gain, ps.AllocWall, ps.FlushWall)
	}
}

// Satellite: a tight DelayedFreeBudgetPerCP leaves frees in the sealed
// queue at every flush; the next seal's absorb must carry them over with
// HBPS scores intact, and the backlog still fully drains.
func TestPipelinedDelayedFreeCarryover(t *testing.T) {
	s, lun := depthSystem(t, true, 256)
	vol := s.Agg.Vols()[0]
	freed, err := s.PunchHoles(lun, func(lba uint64) bool { return lba < 8000 })
	if err != nil || freed != 8000 {
		t.Fatalf("punched %d, err %v", freed, err)
	}
	if vol.PendingFrees() != 8000 {
		t.Fatalf("pending = %d", vol.PendingFrees())
	}
	// Keep writing across many boundaries: each flush reclaims ≤ budget
	// (whole AAs, small overshoot) and carries the rest into the next
	// generation's sealed queue.
	rng := rand.New(rand.NewSource(5))
	prev := vol.PendingFrees()
	for i := 0; prev > 0 && i < 200; i++ {
		for j := 0; j < 64; j++ {
			s.Write(lun, 10000+uint64(rng.Intn(10000)), 1)
		}
		s.CP()
		cur := vol.PendingFrees()
		// Overwrites queue new frees, so only bound the reclaim side.
		if drained := prev - cur; drained > 256+int(aa.RAIDAgnosticBlocks) {
			t.Fatalf("boundary drained %d, budget 256", drained)
		}
		prev = cur
	}
	// Unlimited boundaries to drain the tail, then quiesce.
	s.tun.DelayedFreeBudgetPerCP = 0
	s.Agg.tun.DelayedFreeBudgetPerCP = 0
	s.CP()
	s.Drain()
	if got := vol.PendingFrees(); got != 0 {
		t.Fatalf("pending after drain = %d", got)
	}
	if err := vol.CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	if rep := s.Agg.Scrub(); !rep.Clean() {
		t.Fatalf("scrub: %v", rep)
	}
	if n, _ := s.Registry().Value("watchdog.violations"); n != 0 {
		t.Fatalf("watchdog violations: %v", s.Agg.WatchdogViolations())
	}
}

// Tamper tests: each generation watchdog class fires on the state it pins.
func TestWatchdogGenTamperFires(t *testing.T) {
	mk := func() (*System, *LUN) {
		tun := DefaultTunables()
		tun.Pipeline = true
		tun.CPEveryOps = 1 << 30
		tun.Obs = &ObsOptions{Name: "tamper", Watchdogs: true}
		s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 8 * aa.RAIDAgnosticBlocks}}, tun, 9)
		return s, s.Agg.Vols()[0].CreateLUN("l", 20000)
	}
	viol := func(s *System, class string) uint64 {
		n, _ := s.Registry().Value(class)
		return n
	}

	// Sealed-bank residue with no generation in flight.
	s, lun := mk()
	for lba := uint64(0); lba < 2000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	s.Drain()
	g := s.Agg.groups[0]
	g.flushDeltas.add(aa.ID(3), 1) // dropped-generation residue
	s.runWatchdogs()
	if viol(s, "watchdog.gen_violations") == 0 {
		t.Error("sealed-bank residue did not fire gen_violations")
	}
	g.flushDeltas.clear()

	// In-flight sealed write freed under the generation's feet.
	s, lun = mk()
	for lba := uint64(0); lba < 2000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP() // gen in flight, flushWrites populated
	var tampered bool
	for _, g := range s.Agg.groups {
		if len(g.flushWrites) > 0 {
			s.Agg.bm.Clear(g.flushWrites[0])
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no sealed writes to tamper")
	}
	s.runWatchdogs()
	if viol(s, "watchdog.gen_violations") == 0 {
		t.Error("freed in-flight write did not fire gen_violations")
	}

	// Shard batch stamped with a future generation.
	tun := DefaultTunables()
	tun.Pipeline = true
	tun.AllocShards = 4
	tun.CPEveryOps = 1 << 30
	tun.Obs = &ObsOptions{Name: "tamper", Watchdogs: true}
	s = NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 8 * aa.RAIDAgnosticBlocks}}, tun, 9)
	lun = s.Agg.Vols()[0].CreateLUN("l", 20000)
	for lba := uint64(0); lba < 4000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	tampered = false
	for _, g := range s.Agg.groups {
		if g.q.Tamper(func(_ *heapcache.Entry, gen *uint64) { *gen = g.q.Gen() + 1 }) {
			tampered = true
			break
		}
	}
	if !tampered {
		for _, v := range s.Agg.vols {
			q := v.space.q
			if q.Tamper(func(_ *aa.ID, gen *uint64) { *gen = q.Gen() + 1 }) {
				tampered = true
				break
			}
		}
	}
	if !tampered {
		t.Skip("no held shard batches to tamper")
	}
	s.runWatchdogs()
	if viol(s, "watchdog.gen_violations") == 0 {
		t.Error("future-generation shard batch did not fire gen_violations")
	}
}

func TestWatchdogDFGenTamperFires(t *testing.T) {
	s, lun := depthSystem(t, true, 256)
	vol := s.Agg.Vols()[0]
	if _, err := s.PunchHoles(lun, func(lba uint64) bool { return lba < 4000 }); err != nil {
		t.Fatal(err)
	}
	s.Write(lun, 0, 1)
	s.CP() // seals the queue; carryover guaranteed by the tight budget
	sp := vol.space
	if sp.delayedSealed == nil || sp.delayedSealed.count == 0 {
		t.Fatal("no sealed delayed frees to tamper")
	}
	sp.delayedSealed.count++ // queue count decoupled from its lists
	s.runWatchdogs()
	if n, _ := s.Registry().Value("watchdog.dfgen_violations"); n == 0 {
		t.Error("count/queue mismatch did not fire dfgen_violations")
	}
	sp.delayedSealed.count--

	// Conservation across generations: a sealed free double-counted.
	s2, lun2 := depthSystem(t, true, 256)
	if _, err := s2.PunchHoles(lun2, func(lba uint64) bool { return lba < 4000 }); err != nil {
		t.Fatal(err)
	}
	s2.Write(lun2, 0, 1)
	s2.CP()
	sp2 := s2.Agg.Vols()[0].space
	if sp2.delayedSealed == nil || sp2.delayedSealed.count == 0 {
		t.Fatal("no sealed delayed frees")
	}
	for id, vs := range sp2.delayedSealed.pending {
		if len(vs) > 0 {
			sp2.delayedSealed.pending[id] = vs[:len(vs)-1]
			sp2.delayedSealed.count--
			break
		}
	}
	s2.runWatchdogs()
	nCons, _ := s2.Registry().Value("watchdog.conservation_violations")
	nDF, _ := s2.Registry().Value("watchdog.dfgen_violations")
	if nCons == 0 && nDF == 0 {
		t.Error("lost sealed free fired neither conservation nor dfgen violations")
	}
}
