package wafl

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

func snapFixture(t *testing.T) (*System, *LUN) {
	t.Helper()
	s := testSystem(t, DefaultTunables())
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 20000)
	for lba := uint64(0); lba < 5000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	return s, lun
}

func TestSnapshotPinsBlocks(t *testing.T) {
	s, lun := snapFixture(t)
	vol := s.Agg.Vols()[0]
	usedBefore := s.Agg.bm.Used()

	sn, err := s.CreateSnapshot(lun, "snap1")
	if err != nil {
		t.Fatal(err)
	}
	if sn.Blocks() != 5000 {
		t.Fatalf("snapshot holds %d blocks", sn.Blocks())
	}
	// Snapshot creation allocates nothing.
	if s.Agg.bm.Used() != usedBefore {
		t.Fatal("snapshot creation moved data")
	}
	// Overwrite everything: COW must NOT free the snapshot's blocks.
	oldPhys := lun.Phys(0)
	for lba := uint64(0); lba < 5000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	if !s.Agg.bm.Test(oldPhys) {
		t.Fatal("snapshot-held physical block was freed by overwrite")
	}
	if s.Agg.bm.Used() != 2*5000 {
		t.Fatalf("used = %d, want 10000 (live + snapshot)", s.Agg.bm.Used())
	}
	if err := vol.CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	checkConsistencyWithSnapshots(t, s)
}

func TestSnapshotDeleteFreesBulk(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "snap1")
	for lba := uint64(0); lba < 5000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	freed, err := s.DeleteSnapshot(lun, "snap1")
	if err != nil {
		t.Fatal(err)
	}
	if freed != 5000 {
		t.Fatalf("delete freed %d, want 5000", freed)
	}
	s.CP()
	if s.Agg.bm.Used() != 5000 {
		t.Fatalf("used = %d after delete", s.Agg.bm.Used())
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, s) // no snapshots remain; strict check applies
}

func TestSnapshotDeleteRespectsSharedBlocks(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "snap1")
	// Overwrite only half; the other half stays shared between the active
	// image and the snapshot.
	for lba := uint64(0); lba < 2500; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	freed, err := s.DeleteSnapshot(lun, "snap1")
	if err != nil {
		t.Fatal(err)
	}
	if freed != 2500 {
		t.Fatalf("delete freed %d, want 2500 (only the diverged half)", freed)
	}
	// Shared blocks remain readable through the active image.
	if !s.Agg.bm.Test(lun.Phys(4000)) {
		t.Fatal("shared block freed by snapshot delete")
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleSnapshotsRefcounting(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "a")
	for lba := uint64(0); lba < 1000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	s.CreateSnapshot(lun, "b")
	for lba := uint64(1000); lba < 2000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	if got := lun.SnapshotNames(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("snapshots = %v", got)
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	// Deleting a frees only blocks unique to a (LBAs 0..1000 old copies).
	freedA, err := s.DeleteSnapshot(lun, "a")
	if err != nil {
		t.Fatal(err)
	}
	if freedA != 1000 {
		t.Fatalf("delete a freed %d, want 1000", freedA)
	}
	freedB, err := s.DeleteSnapshot(lun, "b")
	if err != nil {
		t.Fatal(err)
	}
	if freedB != 1000 {
		t.Fatalf("delete b freed %d, want 1000", freedB)
	}
	if s.Agg.bm.Used() != 5000 {
		t.Fatalf("used = %d after all deletes", s.Agg.bm.Used())
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreSnapshot(t *testing.T) {
	s, lun := snapFixture(t)
	origPhys := lun.Phys(100)
	s.CreateSnapshot(lun, "before")
	for lba := uint64(0); lba < 5000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	if lun.Phys(100) == origPhys {
		t.Fatal("overwrite did not move the block")
	}
	s.RestoreSnapshot(lun, "before")
	if lun.Phys(100) != origPhys {
		t.Fatalf("restore did not roll back: %v != %v", lun.Phys(100), origPhys)
	}
	// The post-snapshot writes' blocks were freed by the restore.
	s.CP()
	if s.Agg.bm.Used() != 5000 {
		t.Fatalf("used = %d after restore", s.Agg.bm.Used())
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	// Snapshot still exists and can be deleted; shared blocks survive.
	s.DeleteSnapshot(lun, "before")
	if !s.Agg.bm.Test(lun.Phys(100)) {
		t.Fatal("active block freed by post-restore snapshot delete")
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

// rc belongs to restores: a LUN that is never restored allocates no count
// page, however long it is aged, punched, snapshotted and written under its
// snapshots. A restore counts the pairs it stores twice, and deleting the
// snapshots takes every count back.
func TestNoSnapshotNoCounts(t *testing.T) {
	s, lun := agedSystem(t, DefaultTunables(), 31)
	vol := s.Agg.Vols()[0]
	rng := rand.New(rand.NewSource(32))
	for cp := 0; cp < 10; cp++ {
		if cp%3 == 0 {
			if _, err := s.CreateSnapshot(lun, strconv.Itoa(cp)); err != nil {
				t.Fatal(err)
			}
		}
		if cp == 7 {
			if _, err := s.DeleteSnapshot(lun, "3"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4096; i++ {
			s.Write(lun, uint64(rng.Intn(int(lun.Blocks())-1)), 2)
		}
		s.CP()
	}
	if _, err := s.PunchHoles(lun, func(lba uint64) bool { return lba%7 == 0 }); err != nil {
		t.Fatal(err)
	}
	if vol.rc.Len() != 0 || len(vol.rc.free) != 0 || lun.rcPairs != 0 {
		t.Fatalf("rc holds %d pairs, %d counter pages were made, the LUN claims %d", vol.rc.Len(), len(vol.rc.free), lun.rcPairs)
	}
	for i, p := range vol.rc.dir {
		if p != nil {
			t.Fatalf("counter page %d is allocated", i)
		}
	}
	if err := vol.CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreSnapshot(lun, "0"); err != nil {
		t.Fatal(err)
	}
	if vol.rc.Len() == 0 || lun.rcPairs != vol.rc.Len() {
		t.Fatalf("after a restore past two snapshots: rc holds %d pairs, the LUN claims %d", vol.rc.Len(), lun.rcPairs)
	}
	if err := vol.CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	for _, name := range lun.SnapshotNames() {
		if _, err := s.DeleteSnapshot(lun, name); err != nil {
			t.Fatal(err)
		}
	}
	if vol.rc.Len() != 0 || lun.rcPairs != 0 || len(lun.chain) != 0 {
		t.Fatalf("last snapshot gone: rc holds %d, the LUN claims %d, %d deltas", vol.rc.Len(), lun.rcPairs, len(lun.chain))
	}
	if err := vol.CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

// Every invariant CheckRefcounts states fails it when broken. The fixture
// leaves LBAs 0–7 of LUN a with a pair stored twice (by the restore, then
// moved into y's delta by the overwrite) and one count each.
func TestCheckRefcountsCatches(t *testing.T) {
	for name, corrupt := range map[string]func(s *System, a, b *LUN){
		"a pair in two deltas with no count": func(s *System, a, b *LUN) { a.vol.rc.remove(a.Snapshot("x").d.ptrs[3].virt.vbn()) },
		"a delta entry at a second LBA": func(s *System, a, b *LUN) {
			d := &a.Snapshot("y").d
			d.lbas.Delete(3)
			d.lbas.Add(30)
			d.at[3] = 30
		},
		"a second holder on another LUN":   func(s *System, a, b *LUN) { b.blocks[7] = a.Snapshot("x").d.ptrs[7] },
		"a second holder in the active":    func(s *System, a, b *LUN) { a.blocks[9] = a.blocks[8] },
		"a count on a pair stored once":    func(s *System, a, b *LUN) { a.vol.rc.set(a.Virt(20), 1) },
		"a count nobody holds":             func(s *System, a, b *LUN) { a.vol.rc.set(4000, 2) },
		"a LUN's claim of counts drifted":  func(s *System, a, b *LUN) { a.rcPairs-- },
		"a delta LBA beyond the LUN":       func(s *System, a, b *LUN) { a.Snapshot("x").d.add(250, blockPtr{}) },
		"a delta LBA missing from its set": func(s *System, a, b *LUN) { a.Snapshot("x").d.lbas.Delete(5) },
		"a live count that drifted":        func(s *System, a, b *LUN) { a.vol.live++ },
		"a held pair freed":                func(s *System, a, b *LUN) { a.vol.bm.Clear(a.Virt(20)) },
	} {
		s := testSystem(t, DefaultTunables())
		vol := s.Agg.Vols()[0]
		a, b := vol.CreateLUN("a", 200), vol.CreateLUN("b", 200)
		s.Write(a, 0, 100)
		s.Write(b, 0, 100)
		s.CP()
		s.CreateSnapshot(a, "x")
		s.Write(a, 0, 8) // x alone holds the old LBAs 0–7
		s.CP()
		s.RestoreSnapshot(a, "x") // ... and the active image again
		s.CreateSnapshot(a, "y")
		s.Write(a, 0, 8) // which y's delta takes over
		s.CP()
		if len(a.Snapshot("x").d.at) != 8 || len(a.Snapshot("y").d.at) != 8 || vol.rc.Len() != 8 {
			t.Fatalf("fixture: deltas of %d and %d LBAs, %d counts", len(a.Snapshot("x").d.at), len(a.Snapshot("y").d.at), vol.rc.Len())
		}
		if err := vol.CheckRefcounts(); err != nil {
			t.Fatalf("before %s: %v", name, err)
		}
		corrupt(s, a, b)
		if err := vol.CheckRefcounts(); err == nil {
			t.Errorf("CheckRefcounts passed %s", name)
		}
	}
}

// snapshotErrorLeavesClean fails unless err is want and the refused call left
// every count and cache as it was.
func snapshotErrorLeavesClean(t *testing.T, s *System, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	s.CP()
	if rep := s.Agg.Scrub(); !rep.Clean() {
		t.Fatalf("scrub after %v: %s", want, rep)
	}
}

func TestSnapshotExists(t *testing.T) {
	s, lun := snapFixture(t)
	first, _ := s.CreateSnapshot(lun, "x")
	s.Write(lun, 7, 1)
	s.CP()
	sn, err := s.CreateSnapshot(lun, "x")
	if sn != nil || lun.Snapshot("x") != first {
		t.Fatal("the refused create replaced the snapshot")
	}
	snapshotErrorLeavesClean(t, s, err, ErrSnapshotExists)
}

func TestNoSnapshot(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "x")
	freed, err := s.DeleteSnapshot(lun, "nope")
	if freed != 0 {
		t.Fatalf("refused delete freed %d blocks", freed)
	}
	snapshotErrorLeavesClean(t, s, err, ErrNoSnapshot)
	snapshotErrorLeavesClean(t, s, s.RestoreSnapshot(lun, "nope"), ErrNoSnapshot)
}

// A LUN holds at most 65 535 snapshots — a restored pair's count is 16 bits
// wide — so the next one is refused. The 65 535 before it cost nothing per
// LBA: an overwrite under them all is one entry in the newest delta, which
// every older snapshot resolves through, and a first write one unwritten
// marker.
func TestTooManySnapshots(t *testing.T) {
	s := testSystem(t, DefaultTunables())
	vol := s.Agg.Vols()[0]
	lun := vol.CreateLUN("lun0", 70)
	s.Write(lun, 3, 66)
	s.CP()
	old := lun.blocks[68]
	for i := 0; i < math.MaxUint16; i++ {
		if _, err := s.CreateSnapshot(lun, strconv.Itoa(i)); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	_, err := s.CreateSnapshot(lun, "one more")
	snapshotErrorLeavesClean(t, s, err, ErrTooManySnapshots)
	s.Write(lun, 68, 2)
	s.CP()
	newest := lun.Snapshot(strconv.Itoa(math.MaxUint16 - 1))
	if d := newest.d; len(d.at) != 2 || d.ptrs[0] != old || d.ptrs[1].virt != 0 || vol.rc.Len() != 0 {
		t.Fatalf("newest delta holds %v at LBAs %v, rc %d pairs; want the old pair and the unwritten marker", d.ptrs, d.at, vol.rc.Len())
	}
	first := lun.Snapshot("0")
	if img := snapImage(first); img[68] != old || img[69].virt != 0 || first.Blocks() != 66 {
		t.Fatalf("the oldest snapshot reads %v and %v at LBAs 68–69 and holds %d blocks", img[68], img[69], first.Blocks())
	}
	if freed, err := s.DeleteSnapshot(lun, "17"); freed != 0 || err != nil {
		t.Fatalf("delete: freed %d, err %v", freed, err)
	}
	if _, err := s.CreateSnapshot(lun, "one more"); err != nil {
		t.Fatalf("create after a delete made room: %v", err)
	}
	if err := vol.CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotBoundaryErrors(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "x")
	// Mid-CP operations return the typed boundary error, not a panic.
	s.Write(lun, 0, 1)
	for name, f := range map[string]func() error{
		"create mid-CP": func() error { _, err := s.CreateSnapshot(lun, "y"); return err },
		"delete mid-CP": func() error { _, err := s.DeleteSnapshot(lun, "x"); return err },
		"restore mid-CP": func() error {
			return s.RestoreSnapshot(lun, "x")
		},
		"punch mid-CP": func() error {
			_, err := s.PunchHoles(lun, func(uint64) bool { return true })
			return err
		},
	} {
		if err := f(); !errors.Is(err, ErrCPInProgress) {
			t.Errorf("%s: err = %v, want ErrCPInProgress", name, err)
		}
	}
	// The errors are recoverable: after a CP the operations proceed.
	s.CP()
	if _, err := s.CreateSnapshot(lun, "y"); err != nil {
		t.Fatalf("create after CP: %v", err)
	}
}

// TestSnapshotMidFlightRejected pins the pipelined half of the boundary
// gate: with a sealed generation in flight (writes already allocated but
// not yet committed), snapshot ops return ErrCPInProgress until Drain.
func TestSnapshotMidFlightRejected(t *testing.T) {
	tun := DefaultTunables()
	tun.Pipeline = true
	s := testSystem(t, tun)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 20000)
	for lba := uint64(0); lba < 2000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP() // seals gen 1; it stays in flight
	if !s.InFlight() {
		t.Fatal("no generation in flight after pipelined CP")
	}
	if _, err := s.CreateSnapshot(lun, "x"); !errors.Is(err, ErrCPInProgress) {
		t.Fatalf("create in flight: err = %v, want ErrCPInProgress", err)
	}
	s.Drain()
	if s.InFlight() {
		t.Fatal("still in flight after Drain")
	}
	if _, err := s.CreateSnapshot(lun, "x"); err != nil {
		t.Fatalf("create after Drain: %v", err)
	}
	if _, err := s.DeleteSnapshot(lun, "x"); err != nil {
		t.Fatalf("delete after Drain: %v", err)
	}
}

func TestCleanerRelocatesSnapshotBlocks(t *testing.T) {
	s, lun := snapFixture(t)
	s.CreateSnapshot(lun, "pinned")
	// Diverge, then fragment to give the cleaner work.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8000; i++ {
		s.Write(lun, uint64(rng.Intn(20000)), 1)
	}
	s.CP()
	st := s.CleanBestAAs(s.Agg.groups[0], 6)
	s.CP()
	_ = st
	// Snapshot pointers must have followed any relocations: every snapshot
	// physical block is still allocated.
	for _, p := range snapImage(lun.Snapshot("pinned")) {
		if p.phys != 0 && !s.Agg.bm.Test(p.phys.vbn()) {
			t.Fatalf("snapshot references freed physical %v", p.phys.vbn())
		}
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
	// Deleting the snapshot after cleaning stays consistent.
	s.DeleteSnapshot(lun, "pinned")
	s.CP()
	checkConsistency(t, s)
}

// Snapshot deletion creates the nonuniform free space the paper mentions
// (§4.1.1): after deleting a snapshot, AA scores diverge and the cache's
// best pick improves.
func TestSnapshotDeleteImprovesBestAA(t *testing.T) {
	s, lun := snapFixture(t)
	// Fill most of the aggregate so scores are meaningful.
	for lba := uint64(5000); lba < 20000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	s.CreateSnapshot(lun, "big")
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 20000; i++ {
		s.Write(lun, uint64(rng.Intn(20000)), 1)
	}
	s.CP()
	bestBefore, _ := s.Agg.groups[0].cache.Best()
	s.DeleteSnapshot(lun, "big")
	s.CP()
	bestAfter, _ := s.Agg.groups[0].cache.Best()
	if bestAfter.Score < bestBefore.Score {
		t.Fatalf("best AA score fell after snapshot delete: %d -> %d",
			bestBefore.Score, bestAfter.Score)
	}
	if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

// snapImage materializes a snapshot's image: the active one with the deltas
// from the snapshot on laid over it.
func snapImage(sn *Snapshot) []blockPtr {
	img := slices.Clone(sn.lun.blocks)
	sn.lun.resolve(sn, func(lba uint64, p blockPtr) { img[lba] = p })
	return img
}

// checkConsistencyWithSnapshots relaxes checkConsistency's "aggregate used
// equals active LUN blocks" to include snapshot references.
func checkConsistencyWithSnapshots(t *testing.T, s *System) {
	t.Helper()
	var refs uint64
	for _, v := range s.Agg.vols {
		if err := v.CheckRefcounts(); err != nil {
			t.Fatal(err)
		}
		refs += v.bm.Used()
	}
	if s.Agg.bm.Used() != refs {
		t.Fatalf("aggregate used %d != virtual used %d", s.Agg.bm.Used(), refs)
	}
}
