package wafl

import (
	"math/rand"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

// testSpecs returns a small all-HDD aggregate: 2 groups x (3+1) x 64k
// blocks/device with 256-stripe AAs (so each group has 256 AAs of 768
// blocks).
func testSpecs() []GroupSpec {
	return []GroupSpec{
		{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 1 << 16, Media: aa.MediaHDD, StripesPerAA: 256},
		{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 1 << 16, Media: aa.MediaHDD, StripesPerAA: 256},
	}
}

func testSystem(t *testing.T, tun Tunables) *System {
	t.Helper()
	tun.CPEveryOps = 64
	vols := []VolSpec{{Name: "vol0", Blocks: 4 * aa.RAIDAgnosticBlocks}}
	return NewSystem(testSpecs(), vols, tun, 1)
}

// checkConsistency verifies the cross-module invariants that must hold at
// every CP boundary.
func checkConsistency(t *testing.T, s *System) {
	t.Helper()
	ag := s.Agg
	// Aggregate used == sum of LUN-held physical blocks.
	var held uint64
	for _, v := range ag.vols {
		var volHeld uint64
		for _, l := range v.luns {
			for _, p := range l.blocks {
				if p.phys != 0 {
					held++
					volHeld++
					if !ag.bm.Test(p.phys.vbn()) {
						t.Fatalf("LUN holds unallocated physical %v", p.phys.vbn())
					}
					if !v.bm.Test(p.virt.vbn()) {
						t.Fatalf("LUN holds unallocated virtual %v", p.virt.vbn())
					}
				}
			}
		}
		if v.bm.Used() != volHeld {
			t.Fatalf("vol %s bitmap used %d, LUNs hold %d", v.Name, v.bm.Used(), volHeld)
		}
	}
	if ag.bm.Used() != held {
		t.Fatalf("aggregate used %d, LUNs hold %d", ag.bm.Used(), held)
	}
	// Heap caches agree with bitmaps for all settled AAs.
	for _, g := range ag.groups {
		if !g.cacheEnabled || g.seedOnly {
			continue
		}
		if err := g.cache.CheckInvariants(); err != nil {
			t.Fatalf("group %d heap: %v", g.Index, err)
		}
		for id := 0; id < g.topo.NumAAs(); id++ {
			aid := aa.ID(id)
			if g.curValid && aid == g.curAA {
				continue
			}
			if !g.cache.Tracked(aid) {
				if g.q.Holds(aid) {
					// Staged in a shard queue at its frozen score; the scrub
					// verifies it against the bitmap net of pending deltas.
					continue
				}
				t.Fatalf("group %d AA %d untracked at CP boundary", g.Index, id)
			}
			want := aa.Score(g.topo, ag.bm, aid)
			if got := g.cache.Score(aid); got != want {
				t.Fatalf("group %d AA %d cached score %d, bitmap %d", g.Index, id, got, want)
			}
		}
	}
	// HBPS histograms agree with the volume bitmaps.
	for _, v := range ag.vols {
		sp := v.space
		if !sp.cacheEnabled {
			continue
		}
		if err := sp.cache.CheckInvariants(); err != nil {
			t.Fatalf("vol %s hbps: %v", v.Name, err)
		}
		census := make([]uint32, sp.cache.NumBins())
		for id := 0; id < sp.topo.NumAAs(); id++ {
			census[sp.cache.Bin(sp.aaScore(aa.ID(id)))]++
		}
		for b := range census {
			if sp.cache.BinCount(b) != census[b] {
				t.Fatalf("vol %s bin %d count %d, census %d", v.Name, b, sp.cache.BinCount(b), census[b])
			}
		}
	}
}

func TestBasicWriteCP(t *testing.T) {
	s := testSystem(t, DefaultTunables())
	vol := s.Agg.Vols()[0]
	lun := vol.CreateLUN("lun0", 10000)

	for lba := uint64(0); lba < 100; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	for lba := uint64(0); lba < 100; lba++ {
		if !lun.Written(lba) {
			t.Fatalf("lba %d unwritten after CP", lba)
		}
	}
	if lun.Written(100) {
		t.Fatal("lba 100 spuriously written")
	}
	if s.Agg.bm.Used() != 100 || vol.bm.Used() != 100 {
		t.Fatalf("used: agg=%d vol=%d", s.Agg.bm.Used(), vol.bm.Used())
	}
	checkConsistency(t, s)
	c := s.Counters()
	if c.BlocksWritten != 100 || c.BlocksFreed != 0 {
		t.Fatalf("counters = %+v", c)
	}
	if c.CPs < 1 {
		t.Fatal("no CP recorded")
	}
}

func TestOverwriteIsCOW(t *testing.T) {
	s := testSystem(t, DefaultTunables())
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 1000)
	s.Write(lun, 5, 1)
	s.CP()
	firstPhys, firstVirt := lun.Phys(5), lun.Virt(5)
	s.Write(lun, 5, 1)
	s.CP()
	if lun.Phys(5) == firstPhys || lun.Virt(5) == firstVirt {
		t.Fatal("overwrite reused the same VBNs (not copy-on-write)")
	}
	if s.Agg.bm.Test(firstPhys) {
		t.Fatal("old physical block not freed")
	}
	if s.Agg.Vols()[0].bm.Test(firstVirt) {
		t.Fatal("old virtual block not freed")
	}
	if s.Counters().BlocksFreed != 1 {
		t.Fatalf("freed = %d", s.Counters().BlocksFreed)
	}
	checkConsistency(t, s)
}

func TestCPCoalescesOverwrites(t *testing.T) {
	s := testSystem(t, DefaultTunables())
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 1000)
	// 10 writes to the same LBA within one CP allocate one block.
	for i := 0; i < 10; i++ {
		s.Write(lun, 7, 1)
	}
	s.CP()
	if s.Counters().BlocksWritten != 1 {
		t.Fatalf("blocks written = %d, want 1 (coalesced)", s.Counters().BlocksWritten)
	}
}

func TestAutomaticCPTrigger(t *testing.T) {
	tun := DefaultTunables()
	s := testSystem(t, tun) // CPEveryOps = 64
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 100000)
	for lba := uint64(0); lba < 200; lba++ {
		s.Write(lun, lba, 1)
	}
	if s.Counters().CPs < 3 {
		t.Fatalf("CPs = %d, want >= 3 from op-count trigger", s.Counters().CPs)
	}
}

func TestWriteBeyondLUNPanics(t *testing.T) {
	s := testSystem(t, DefaultTunables())
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 10)
	for name, f := range map[string]func(){
		"write": func() { s.Write(lun, 9, 2) },
		"read":  func() { s.Read(lun, 10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s beyond LUN did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReadChargesDevices(t *testing.T) {
	s := testSystem(t, DefaultTunables())
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 1000)
	s.Write(lun, 0, 1)
	s.CP()
	before := s.Counters().DeviceBusy
	s.Read(lun, 0, 1)
	if s.Counters().DeviceBusy <= before {
		t.Fatal("read did not charge device time")
	}
	// Reading an unwritten block touches no device.
	before = s.Counters().DeviceBusy
	s.Read(lun, 500, 1)
	if s.Counters().DeviceBusy != before {
		t.Fatal("unwritten read charged device time")
	}
}

func TestRandomChurnKeepsInvariants(t *testing.T) {
	s := testSystem(t, DefaultTunables())
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 20000)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		s.Write(lun, uint64(rng.Intn(20000)), 1+rng.Intn(2))
	}
	s.CP()
	checkConsistency(t, s)
	// Free-space totals: writes minus frees equals used.
	c := s.Counters()
	if c.BlocksWritten-c.BlocksFreed != s.Agg.bm.Used() {
		t.Fatalf("written %d - freed %d != used %d", c.BlocksWritten, c.BlocksFreed, s.Agg.bm.Used())
	}
}

func TestChurnWithCachesDisabled(t *testing.T) {
	tun := Tunables{AggregateCacheEnabled: false, VolCacheEnabled: false}
	s := testSystem(t, tun)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 20000)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10000; i++ {
		s.Write(lun, uint64(rng.Intn(20000)), 1)
	}
	s.CP()
	// Bitmap/LUN consistency still holds (cache checks skip disabled caches).
	checkConsistency(t, s)
	if s.Agg.bm.Used() == 0 {
		t.Fatal("nothing allocated")
	}
}

func TestRoundRobinSpreadsAcrossGroups(t *testing.T) {
	s := testSystem(t, DefaultTunables())
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 100000)
	for lba := uint64(0); lba < 60000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	b0 := s.Agg.groups[0].raidStats.BlocksWritten
	b1 := s.Agg.groups[1].raidStats.BlocksWritten
	if b0 == 0 || b1 == 0 {
		t.Fatalf("group block counts: %d %d", b0, b1)
	}
	ratio := float64(b0) / float64(b1)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("uneven spread across identical groups: %d vs %d", b0, b1)
	}
}

func TestFullStripesOnFreshSystem(t *testing.T) {
	// Sequential writes on an unaged system should produce overwhelmingly
	// full stripe writes. Use production-sized CP batches: the only
	// partial stripes should be the one at each CP boundary per group.
	tun := DefaultTunables()
	tun.CPEveryOps = 2048
	vols := []VolSpec{{Name: "vol0", Blocks: 4 * aa.RAIDAgnosticBlocks}}
	s := NewSystem(testSpecs(), vols, tun, 1)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 100000)
	for lba := uint64(0); lba < 30000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	for _, g := range s.Agg.groups {
		st := g.raidStats
		if st.FullStripeFraction() < 0.95 {
			t.Fatalf("group %d full-stripe fraction %.3f on fresh system",
				g.Index, st.FullStripeFraction())
		}
		if st.ParityReadBlocks > st.BlocksWritten/10 {
			t.Fatalf("group %d parity reads %d excessive", g.Index, st.ParityReadBlocks)
		}
	}
}

func TestCacheGuidesToEmptierAAs(t *testing.T) {
	// Age a system, then compare the average picked-AA free fraction with
	// the cache on vs off. This is the mechanism behind Fig. 6: 61% free
	// picks with the cache vs 46% (the aggregate average) without.
	age := func(tun Tunables) (*System, *LUN) {
		tun.CPEveryOps = 256
		s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 3)
		lun := s.Agg.Vols()[0].CreateLUN("lun0", 200000)
		// Fill ~50% of the aggregate then churn.
		for lba := uint64(0); lba < 200000; lba++ {
			s.Write(lun, lba, 1)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 300000; i++ {
			s.Write(lun, uint64(rng.Intn(200000)), 1)
		}
		s.CP()
		return s, lun
	}

	measure := func(tun Tunables) float64 {
		s, lun := age(tun)
		for _, g := range s.Agg.groups {
			g.ResetMetrics()
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 50000; i++ {
			s.Write(lun, uint64(rng.Intn(200000)), 1)
		}
		s.CP()
		var sum float64
		var n int
		for _, g := range s.Agg.groups {
			m := g.Metrics()
			if m.PickedScoreFraction > 0 {
				sum += m.PickedScoreFraction
				n++
			}
		}
		return sum / float64(n)
	}

	on := measure(DefaultTunables())
	off := measure(Tunables{AggregateCacheEnabled: false, VolCacheEnabled: true})
	if on <= off {
		t.Fatalf("cache-on picked fraction %.3f <= cache-off %.3f", on, off)
	}
	t.Logf("picked free fraction: cache on %.3f, off %.3f", on, off)
}

func TestFragmentationBiasDirectsWritesToEmptierGroup(t *testing.T) {
	// Age only group 0, then verify group 1 receives more blocks — the
	// §4.2 behaviour.
	tun := DefaultTunables()
	tun.MinAAScoreFraction = 0.05
	tun.CPEveryOps = 256
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 9)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 150000)

	// Phase 1: fill most of group 0's share by writing while group 1 is
	// "absent" — simulate by writing everything, then freeing all blocks
	// that landed in group 1 and churning group 0.
	for lba := uint64(0); lba < 150000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	g1range := s.Agg.groups[1].geo.VBNRange()
	rng := rand.New(rand.NewSource(10))
	// Free every LUN block on group 1 (fresh group) and every second block
	// on group 0 randomly (fragmenting it).
	vol := s.Agg.Vols()[0]
	for lba := uint64(0); lba < 150000; lba++ {
		p := lun.Phys(lba)
		if p == block.InvalidVBN {
			continue
		}
		if g1range.Contains(p) || rng.Intn(2) == 0 {
			vol.space.freeVirtual(lun.blocks[lba : lba+1])
			s.Agg.FreePhysical(p)
			lun.blocks[lba] = blockPtr{}
		}
	}
	s.CP()
	checkConsistency(t, s)

	for _, g := range s.Agg.groups {
		g.ResetMetrics()
	}
	pre0 := s.Agg.groups[0].raidStats.BlocksWritten
	pre1 := s.Agg.groups[1].raidStats.BlocksWritten

	// Phase 2: new writes should be biased toward the fresh group 1.
	for i := 0; i < 40000; i++ {
		s.Write(lun, uint64(rng.Intn(150000)), 1)
	}
	s.CP()
	d0 := s.Agg.groups[0].raidStats.BlocksWritten - pre0
	d1 := s.Agg.groups[1].raidStats.BlocksWritten - pre1
	if d1 <= d0 {
		t.Fatalf("fresh group got %d blocks, aged group %d — no bias", d1, d0)
	}
	t.Logf("blocks: aged group %d, fresh group %d", d0, d1)
}
