package wafl

import (
	"math/rand"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

func pooledSystem(t *testing.T) (*System, *LUN, *Pool) {
	t.Helper()
	tun := DefaultTunables()
	tun.CPEveryOps = 256
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 8 * aa.RAIDAgnosticBlocks}}, tun, 5)
	pool := s.Agg.AddObjectPool(PoolSpec{Blocks: 4 * aa.RAIDAgnosticBlocks})
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 60000)
	for lba := uint64(0); lba < 60000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	return s, lun, pool
}

func TestAddObjectPoolGrowsSpace(t *testing.T) {
	tun := DefaultTunables()
	s := NewSystem(testSpecs(), nil, tun, 1)
	before := s.Agg.Blocks()
	pool := s.Agg.AddObjectPool(PoolSpec{Blocks: 2 * aa.RAIDAgnosticBlocks})
	if s.Agg.Blocks() != before+2*aa.RAIDAgnosticBlocks {
		t.Fatalf("aggregate = %d blocks", s.Agg.Blocks())
	}
	if pool.Range().Start != block.VBN(before) {
		t.Fatalf("pool range = %v", pool.Range())
	}
	// Double-attach and RAID growth after pool are rejected.
	for name, f := range map[string]func(){
		"second pool":      func() { s.Agg.AddObjectPool(PoolSpec{Blocks: 1024}) },
		"group after pool": func() { s.Agg.AddGroup(testSpecs()[0]) },
		"zero pool":        func() { NewSystem(testSpecs(), nil, tun, 1).Agg.AddObjectPool(PoolSpec{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTierOutMovesColdBlocks(t *testing.T) {
	s, lun, pool := pooledSystem(t)
	groupUsedBefore := s.Agg.bm.CountUsed(s.Agg.groups[0].geo.VBNRange()) +
		s.Agg.bm.CountUsed(s.Agg.groups[1].geo.VBNRange())

	// Tier out the cold first half.
	moved := s.TierOut(lun, func(lba uint64) bool { return lba < 30000 })
	if moved != 30000 {
		t.Fatalf("tiered %d", moved)
	}
	s.CP() // charges the object PUTs

	// Pointers now land in the pool; group space was released.
	if !pool.Contains(lun.Phys(0)) {
		t.Fatalf("lba 0 phys %v not in pool %v", lun.Phys(0), pool.Range())
	}
	if pool.Contains(lun.Phys(40000)) {
		t.Fatal("hot block tiered out")
	}
	groupUsedAfter := s.Agg.bm.CountUsed(s.Agg.groups[0].geo.VBNRange()) +
		s.Agg.bm.CountUsed(s.Agg.groups[1].geo.VBNRange())
	if groupUsedAfter != groupUsedBefore-30000 {
		t.Fatalf("group used %d -> %d", groupUsedBefore, groupUsedAfter)
	}
	st := pool.Stats()
	if st.BlocksTiered != 30000 {
		t.Fatalf("pool stats = %+v", st)
	}
	// 30000 blocks in 1024-block objects: 30 PUTs.
	if st.Puts != 30 {
		t.Fatalf("puts = %d", st.Puts)
	}
	checkConsistency(t, s)
}

func TestPoolAllocationIsColocated(t *testing.T) {
	s, lun, pool := pooledSystem(t)
	s.TierOut(lun, func(lba uint64) bool { return lba < 10000 })
	s.CP()
	// HBPS-guided sequential allocation within the pool's AAs: the tiered
	// blocks occupy a tight VBN range (minimal metafile blocks touched).
	lo, hi := block.InvalidVBN, block.VBN(0)
	for lba := uint64(0); lba < 10000; lba++ {
		p := lun.Phys(lba)
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if span := uint64(hi - lo + 1); span > 16384 {
		t.Fatalf("tiered blocks span %d VBNs for 10000 blocks", span)
	}
	_ = pool
}

func TestPoolReadsChargeGets(t *testing.T) {
	s, lun, pool := pooledSystem(t)
	s.TierOut(lun, func(lba uint64) bool { return lba < 1000 })
	s.CP()
	before := pool.Stats()
	s.Read(lun, 0, 4) // 4 tiered blocks, physically contiguous: one range GET
	if got := pool.Stats(); got.Gets != before.Gets+1 || got.BlocksFetched != before.BlocksFetched+4 {
		t.Fatalf("gets = %d blocks = %d", got.Gets, got.BlocksFetched)
	}
	// Hot reads don't touch the pool.
	after := pool.Stats().Gets
	s.Read(lun, 50000, 1)
	if pool.Stats().Gets != after {
		t.Fatal("hot read hit the pool")
	}
}

func TestPoolOverwriteFreesPoolBlock(t *testing.T) {
	s, lun, pool := pooledSystem(t)
	s.TierOut(lun, func(lba uint64) bool { return lba < 1000 })
	s.CP()
	cold := lun.Phys(5)
	if !pool.Contains(cold) {
		t.Fatal("setup: lba 5 not tiered")
	}
	// Overwriting a tiered block writes the new version to the performance
	// tier and frees the pool block.
	s.Write(lun, 5, 1)
	s.CP()
	if pool.Contains(lun.Phys(5)) {
		t.Fatal("overwrite landed in the pool")
	}
	if s.Agg.bm.Test(cold) {
		t.Fatal("old pool block not freed")
	}
	checkConsistency(t, s)
}

func TestPoolSurvivesRemount(t *testing.T) {
	s, lun, pool := pooledSystem(t)
	s.TierOut(lun, func(lba uint64) bool { return lba%3 == 0 })
	s.CP()
	ms := s.Agg.Remount(true)
	if ms.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d", ms.Fallbacks)
	}
	// Pool TopAA adds 2 block reads: groups + vol + pool.
	want := uint64(len(s.Agg.groups)) + 2 + 2
	if ms.TopAABlockReads != want {
		t.Fatalf("TopAA reads = %d, want %d", ms.TopAABlockReads, want)
	}
	// Tiering continues after remount.
	n := s.TierOut(lun, func(lba uint64) bool { return lba%3 == 1 })
	if n == 0 {
		t.Fatal("no blocks tiered after remount")
	}
	s.CP()
	checkConsistency(t, s)
	_ = pool
}

func TestTierOutWithSnapshotsRepointsAll(t *testing.T) {
	s, lun, pool := pooledSystem(t)
	s.CreateSnapshot(lun, "pin")
	// Diverge and restore, so the first 2000 pairs sit both in the active
	// image and in the snapshot's delta.
	for lba := uint64(0); lba < 2000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	if err := s.RestoreSnapshot(lun, "pin"); err != nil {
		t.Fatal(err)
	}
	s.TierOut(lun, func(lba uint64) bool { return lba < 2000 })
	s.CP()
	// Snapshot and active image share the tiered block: both must point at
	// the same pool VBN (moved once, not duplicated).
	img := snapImage(lun.Snapshot("pin"))
	for lba := 0; lba < 2000; lba++ {
		if img[lba].phys != lun.blocks[lba].phys {
			t.Fatalf("lba %d: snapshot %v != active %v", lba, img[lba].phys.vbn(), lun.Phys(uint64(lba)))
		}
		if !pool.Contains(img[lba].phys.vbn()) {
			t.Fatalf("lba %d not tiered", lba)
		}
	}
	if pool.Stats().BlocksTiered != 2000 {
		t.Fatalf("tiered = %d, want 2000 (shared blocks move once)", pool.Stats().BlocksTiered)
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomChurnWithPool(t *testing.T) {
	s, lun, _ := pooledSystem(t)
	rng := rand.New(rand.NewSource(12))
	s.TierOut(lun, func(lba uint64) bool { return rng.Float64() < 0.3 })
	s.CP()
	for i := 0; i < 20000; i++ {
		s.Write(lun, uint64(rng.Intn(60000)), 1)
	}
	s.CP()
	checkConsistency(t, s)
	c := s.Counters()
	if c.BlocksWritten-c.BlocksFreed != s.Agg.bm.Used() {
		t.Fatalf("conservation: written %d - freed %d != used %d",
			c.BlocksWritten, c.BlocksFreed, s.Agg.bm.Used())
	}
}
