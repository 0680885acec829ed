package wafl

import (
	"math/rand"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/hbps"
)

// agedSystem builds, fills, and churns a system, ending at a CP boundary.
func agedSystem(t *testing.T, tun Tunables, seed int64) (*System, *LUN) {
	t.Helper()
	tun.CPEveryOps = 512
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, seed)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 120000)
	for lba := uint64(0); lba < 120000; lba++ {
		s.Write(lun, lba, 1)
	}
	rng := rand.New(rand.NewSource(seed + 100))
	for i := 0; i < 60000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()
	return s, lun
}

func TestRemountWithTopAAIsCheap(t *testing.T) {
	s, _ := agedSystem(t, DefaultTunables(), 1)
	bestBefore := make([]uint64, len(s.Agg.groups))
	for i, g := range s.Agg.groups {
		e, _ := g.cache.Best()
		bestBefore[i] = e.Score
	}

	ms := s.Agg.Remount(true)
	// TopAA path: 1 block per group + 2 per volume, no bitmap walk.
	wantReads := uint64(len(s.Agg.groups)) + 2*uint64(len(s.Agg.vols))
	if ms.TopAABlockReads != wantReads {
		t.Fatalf("TopAA reads = %d, want %d", ms.TopAABlockReads, wantReads)
	}
	if ms.BitmapPagesRead != 0 {
		t.Fatalf("TopAA mount read %d bitmap pages", ms.BitmapPagesRead)
	}
	if ms.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d", ms.Fallbacks)
	}
	// The seeded heaps serve the same best AA as before the crash.
	for i, g := range s.Agg.groups {
		e, ok := g.cache.Best()
		if !ok || e.Score != bestBefore[i] {
			t.Fatalf("group %d best after mount %v, want score %d", i, e, bestBefore[i])
		}
		if g.cache.Len() > 512 {
			t.Fatalf("seed cache has %d entries", g.cache.Len())
		}
	}
}

func TestRemountWithoutTopAAWalksBitmaps(t *testing.T) {
	s, _ := agedSystem(t, DefaultTunables(), 2)
	ms := s.Agg.Remount(false)
	if ms.TopAABlockReads != 0 {
		t.Fatalf("no-TopAA mount read %d TopAA blocks", ms.TopAABlockReads)
	}
	// The walk must touch every bitmap page of aggregate + volumes.
	wantPages := s.Agg.bm.Pages()
	for _, v := range s.Agg.vols {
		wantPages += v.bm.Pages()
	}
	if ms.BitmapPagesRead < wantPages {
		t.Fatalf("bitmap pages read %d < %d", ms.BitmapPagesRead, wantPages)
	}
	// Full rebuild: every AA tracked with its bitmap score.
	for _, g := range s.Agg.groups {
		if g.cache.Len() != g.topo.NumAAs() {
			t.Fatalf("group %d cache len %d", g.Index, g.cache.Len())
		}
	}
}

func TestRemountFallsBackOnCorruption(t *testing.T) {
	s, _ := agedSystem(t, DefaultTunables(), 3)
	// Damage one group's TopAA block and one volume's HBPS pages.
	if err := s.Agg.store.Corrupt(s.Agg.groups[0].key, 12); err != nil {
		t.Fatal(err)
	}
	if err := s.Agg.store.Corrupt("v", 0); err != nil {
		t.Fatal(err)
	}
	ms := s.Agg.Remount(true)
	if ms.Fallbacks != 2 {
		t.Fatalf("fallbacks = %d, want 2", ms.Fallbacks)
	}
	// Fallback spaces rebuilt from bitmaps; others seeded.
	if ms.BitmapPagesRead == 0 {
		t.Fatal("fallback did not walk bitmaps")
	}
	if s.Agg.groups[0].cache.Len() != s.Agg.groups[0].topo.NumAAs() {
		t.Fatal("corrupt group not fully rebuilt")
	}
	if s.Agg.groups[1].cache.Len() > 512 {
		t.Fatal("intact group not seeded")
	}
}

// TestRemountRejectsForeignHBPS: a volume's TopAA image can verify chunk by
// chunk, carry the current generation and decode into a consistent HBPS, and
// still not describe the volume. Remount must notice at load and walk the
// bitmap — adopted, such an image fails later inside a pick, on an AA the
// space does not have or a score its bins cannot hold.
func TestRemountRejectsForeignHBPS(t *testing.T) {
	const numAAs = 16 // agedSystem's volume
	full := uint32(aa.RAIDAgnosticBlocks)
	for _, tc := range []struct {
		name  string
		build func() *hbps.HBPS
	}{
		{"listed id past the space", func() *hbps.HBPS {
			h := hbps.New(hbps.DefaultConfig())
			for id := 0; id < numAAs-1; id++ {
				h.Track(aa.ID(id), full/2)
			}
			h.Track(numAAs+5, full) // the right item count, the wrong item
			return h
		}},
		{"too few items tracked", func() *hbps.HBPS {
			h := hbps.New(hbps.DefaultConfig())
			for id := 0; id < numAAs/2; id++ {
				h.Track(aa.ID(id), full)
			}
			return h
		}},
		{"another geometry", func() *hbps.HBPS {
			h := hbps.New(hbps.Config{MaxScore: 1024, BinWidth: 32, ListCap: hbps.DefaultListCap})
			for id := 0; id < numAAs; id++ {
				h.Track(aa.ID(id), 1024)
			}
			return h
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, lun := agedSystem(t, DefaultTunables(), 7)
			if n := s.Agg.vols[0].space.topo.NumAAs(); n != numAAs {
				t.Fatalf("volume has %d AAs, the test assumes %d", n, numAAs)
			}
			s.Agg.store.SaveAgnostic("v", tc.build())
			ms := s.Agg.Remount(true)
			if ms.DamageFallbacks != 1 || ms.Fallbacks != 1 {
				t.Fatalf("mount stats %+v, want exactly one damage fallback", ms)
			}
			rng := rand.New(rand.NewSource(77))
			for i := 0; i < 5000; i++ {
				s.Write(lun, uint64(rng.Intn(120000)), 1)
			}
			s.CP()
			s.Agg.CompleteBackgroundFill()
			s.CP()
			checkConsistency(t, s)
			if rep := s.Agg.Scrub(); !rep.Clean() {
				t.Fatalf("scrub after the fallback: %+v", rep.Divergent())
			}
		})
	}
}

func TestOperationContinuesAfterSeededMount(t *testing.T) {
	s, lun := agedSystem(t, DefaultTunables(), 4)
	s.Agg.Remount(true)
	// Writes proceed on the seed alone.
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 5000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()
	// Background fill then restores the full-cache invariants.
	inserted := s.Agg.CompleteBackgroundFill()
	if inserted == 0 {
		t.Fatal("background fill inserted nothing")
	}
	s.CP()
	checkConsistency(t, s)
}

func TestRemountWithoutTopAAThenChurn(t *testing.T) {
	s, lun := agedSystem(t, DefaultTunables(), 5)
	s.Agg.Remount(false)
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 5000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()
	checkConsistency(t, s)
}

func TestMountScalesWithVolumeCountOnlyWithoutTopAA(t *testing.T) {
	// The Fig. 10 mechanism in miniature: TopAA reads grow with volume
	// count (cheap, fixed per volume), while the no-TopAA walk grows with
	// total volume *size*.
	build := func(nvols int, volBlocks uint64) *System {
		tun := DefaultTunables()
		tun.CPEveryOps = 1024
		var vols []VolSpec
		for i := 0; i < nvols; i++ {
			vols = append(vols, VolSpec{Name: string(rune('a' + i)), Blocks: volBlocks})
		}
		s := NewSystem(testSpecs(), vols, tun, 6)
		lun := s.Agg.Vols()[0].CreateLUN("l", 5000)
		for lba := uint64(0); lba < 5000; lba++ {
			s.Write(lun, lba, 1)
		}
		s.CP()
		return s
	}
	small := build(2, 4*aa.RAIDAgnosticBlocks)
	large := build(2, 32*aa.RAIDAgnosticBlocks)

	msSmallTop := small.Agg.Remount(true)
	msLargeTop := large.Agg.Remount(true)
	if msSmallTop.TopAABlockReads != msLargeTop.TopAABlockReads {
		t.Fatalf("TopAA reads scale with volume size: %d vs %d",
			msSmallTop.TopAABlockReads, msLargeTop.TopAABlockReads)
	}
	msSmallWalk := small.Agg.Remount(false)
	msLargeWalk := large.Agg.Remount(false)
	if msLargeWalk.BitmapPagesRead <= msSmallWalk.BitmapPagesRead {
		t.Fatalf("bitmap walk does not grow with volume size: %d vs %d",
			msSmallWalk.BitmapPagesRead, msLargeWalk.BitmapPagesRead)
	}
}

func TestRepairTopAARecoversFromCorruption(t *testing.T) {
	s, lun := agedSystem(t, DefaultTunables(), 6)
	// Damage every metafile.
	for i := range s.Agg.groups {
		if err := s.Agg.store.Corrupt(s.Agg.groups[i].key, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Agg.store.Corrupt("v", 1); err != nil {
		t.Fatal(err)
	}
	// Without repair, mounting falls back everywhere.
	ms := s.Agg.Remount(true)
	if ms.Fallbacks != len(s.Agg.groups)+1 {
		t.Fatalf("fallbacks = %d", ms.Fallbacks)
	}
	// Repair recomputes and rewrites everything from the bitmaps.
	repaired := s.Agg.RepairTopAA()
	if repaired != len(s.Agg.groups)+1 {
		t.Fatalf("repaired = %d", repaired)
	}
	ms = s.Agg.Remount(true)
	if ms.Fallbacks != 0 || ms.BitmapPagesRead != 0 {
		t.Fatalf("post-repair mount stats = %+v", ms)
	}
	// The system is fully operational afterwards.
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 5000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()
	s.Agg.CompleteBackgroundFill()
	s.CP()
	checkConsistency(t, s)
}
