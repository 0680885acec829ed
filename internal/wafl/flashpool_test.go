package wafl

import (
	"math/rand"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

// flashPoolSystem: one SSD group (hot tier) + two HDD groups (capacity).
func flashPoolSystem(t *testing.T) (*System, *LUN) {
	t.Helper()
	tun := DefaultTunables()
	tun.FlashPool = true
	tun.CPEveryOps = 256
	specs := []GroupSpec{
		{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 1 << 15, Media: aa.MediaSSD, EraseBlockBlocks: 512, StripesPerAA: 1024},
		{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 1 << 16, Media: aa.MediaHDD, StripesPerAA: 1024},
		{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 1 << 16, Media: aa.MediaHDD, StripesPerAA: 1024},
	}
	s := NewSystem(specs, []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 17)
	lun := s.Agg.Vols()[0].CreateLUN("l", 200000)
	return s, lun
}

func mediaOf(s *System, v block.VBN) aa.Media {
	return s.Agg.groupOf(v).Spec.Media
}

func TestFlashPoolWritesLandOnSSD(t *testing.T) {
	s, lun := flashPoolSystem(t)
	for lba := uint64(0); lba < 30000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	// Everything fits on flash (96k blocks), so every write is there.
	for _, lba := range []uint64{0, 15000, 29999} {
		if m := mediaOf(s, lun.Phys(lba)); m != aa.MediaSSD {
			t.Fatalf("lba %d on %s, want SSD", lba, m)
		}
	}
	usage := s.Agg.MediaUsage()
	if usage[aa.MediaHDD] != 0 {
		t.Fatalf("HDD usage = %.3f before spill", usage[aa.MediaHDD])
	}
}

func TestFlashPoolSpillsWhenFlashFull(t *testing.T) {
	s, lun := flashPoolSystem(t)
	// SSD tier holds 3*32768 = 98304 blocks; write more than that.
	for lba := uint64(0); lba < 150000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	usage := s.Agg.MediaUsage()
	if usage[aa.MediaSSD] < 0.99 {
		t.Fatalf("SSD usage = %.3f, want full before spilling", usage[aa.MediaSSD])
	}
	if usage[aa.MediaHDD] == 0 {
		t.Fatal("no spill to HDD despite full flash")
	}
	checkConsistency(t, s)
}

func TestDemoteMovesColdToHDD(t *testing.T) {
	s, lun := flashPoolSystem(t)
	for lba := uint64(0); lba < 40000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	// Demote the cold first half.
	moved := s.Demote(lun, func(lba uint64) bool { return lba < 20000 })
	if moved != 20000 {
		t.Fatalf("demoted %d", moved)
	}
	s.CP()
	if m := mediaOf(s, lun.Phys(0)); m != aa.MediaHDD {
		t.Fatalf("demoted block on %s", m)
	}
	if m := mediaOf(s, lun.Phys(30000)); m != aa.MediaSSD {
		t.Fatalf("hot block on %s", m)
	}
	// Flash space was released.
	usage := s.Agg.MediaUsage()
	if usage[aa.MediaSSD] > 0.25 {
		t.Fatalf("SSD usage %.3f after demotion", usage[aa.MediaSSD])
	}
	// Demoting again is a no-op (already on HDD).
	if again := s.Demote(lun, func(lba uint64) bool { return lba < 20000 }); again != 0 {
		t.Fatalf("re-demotion moved %d", again)
	}
	checkConsistency(t, s)
}

func TestDemoteLandsInLongHDDChains(t *testing.T) {
	s, lun := flashPoolSystem(t)
	for lba := uint64(0); lba < 30000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	s.Demote(lun, func(lba uint64) bool { return true })
	s.CP()
	// Demoted data went through the AA-cache allocator: full stripes on
	// the HDD groups, not scattered blocks.
	for _, g := range s.Agg.Groups()[1:] {
		st := g.RAIDStats()
		if st.BlocksWritten == 0 {
			continue
		}
		if st.FullStripeFraction() < 0.9 {
			t.Fatalf("HDD group %d full-stripe fraction %.3f on demotion",
				g.Index, st.FullStripeFraction())
		}
	}
}

func TestDemoteWithSnapshotRepointsBoth(t *testing.T) {
	s, lun := flashPoolSystem(t)
	for lba := uint64(0); lba < 10000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	s.CreateSnapshot(lun, "pin")
	// Diverge and restore, so the first 5000 pairs sit both in the active
	// image and in the snapshot's delta: two slots to repoint per block.
	for lba := uint64(0); lba < 5000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	if err := s.RestoreSnapshot(lun, "pin"); err != nil {
		t.Fatal(err)
	}
	sn := lun.Snapshot("pin")
	if len(sn.d.at) != 5000 {
		t.Fatalf("the snapshot's delta holds %d LBAs, want 5000", len(sn.d.at))
	}
	moved := s.Demote(lun, func(lba uint64) bool { return lba < 5000 })
	if moved != 5000 {
		t.Fatalf("moved %d (shared blocks must move once)", moved)
	}
	s.CP()
	img := snapImage(sn)
	for lba := 0; lba < 5000; lba++ {
		if img[lba].phys != lun.blocks[lba].phys || mediaOf(s, img[lba].phys.vbn()) != aa.MediaHDD {
			t.Fatalf("lba %d snapshot/active diverged", lba)
		}
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

func TestFlashPoolChurnStaysConsistent(t *testing.T) {
	s, lun := flashPoolSystem(t)
	rng := rand.New(rand.NewSource(18))
	for lba := uint64(0); lba < 120000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	s.Demote(lun, func(lba uint64) bool { return rng.Float64() < 0.5 })
	s.CP()
	for i := 0; i < 30000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()
	checkConsistency(t, s)
	c := s.Counters()
	if c.BlocksWritten-c.BlocksFreed != s.Agg.bm.Used() {
		t.Fatalf("conservation broken")
	}
}
