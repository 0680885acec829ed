package waflfs

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// The root package is the public surface; these tests exercise the
// re-exported API end to end the way the examples do.

func testSpec() GroupSpec {
	return GroupSpec{DataDevices: 4, ParityDevices: 1, BlocksPerDevice: 1 << 15, Media: MediaHDD, StripesPerAA: 512}
}

func TestPublicLifecycle(t *testing.T) {
	sys := NewSystem([]GroupSpec{testSpec(), testSpec()},
		[]VolSpec{{Name: "v", Blocks: 4 * RAIDAgnosticAABlocks}}, DefaultTunables(), 1)
	vol := sys.Agg.Vols()[0]
	lun := vol.CreateLUN("l", 10000)

	SequentialFill(sys, lun, 4)
	sys.CP()
	if sys.Agg.Bitmap().Used() != 10000 {
		t.Fatalf("used = %d", sys.Agg.Bitmap().Used())
	}

	// Snapshot + overwrite + delete via the public API.
	sys.CreateSnapshot(lun, "s")
	if _, err := sys.CreateSnapshot(lun, "s"); !errors.Is(err, ErrSnapshotExists) {
		t.Fatalf("second create of a name: err %v", err)
	}
	if err := sys.RestoreSnapshot(lun, "t"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("restore of an unknown name: err %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	RandomOverwrite(sys, []*LUN{lun}, rng, 3000, 1)
	if _, err := sys.DeleteSnapshot(lun, "s"); !errors.Is(err, ErrCPInProgress) {
		t.Fatalf("delete with writes pending: err %v", err)
	}
	sys.CP()
	if n, err := sys.DeleteSnapshot(lun, "s"); err != nil || n == 0 {
		t.Fatalf("snapshot delete freed %d, err %v", n, err)
	}
	sys.CP()

	// Remount through TopAA.
	ms := sys.Agg.Remount(true)
	if ms.Fallbacks != 0 || ms.TopAABlockReads == 0 {
		t.Fatalf("mount stats = %+v", ms)
	}
	if err := vol.CheckRefcounts(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDataStructures(t *testing.T) {
	// HBPS via the re-export.
	h := NewHBPS(DefaultHBPSConfig())
	h.Track(AAID(1), 32768)
	h.Track(AAID(2), 100)
	if id, ok := h.PeekBest(); !ok || id != 1 {
		t.Fatalf("PeekBest = %d,%v", id, ok)
	}
	if len(h.Marshal()) != 2*BlockSize {
		t.Fatal("HBPS not two pages")
	}
	// Heap cache.
	c := NewHeapCacheFromScores([]uint64{5, 9, 3})
	if best, _ := c.Best(); best.Score != 9 {
		t.Fatalf("heap best = %+v", best)
	}
	// Bitmap.
	bm := NewBitmap(1000)
	bm.Set(VBN(7))
	if bm.CountFree(Range{Start: 0, End: 1000}) != 999 {
		t.Fatal("bitmap count wrong")
	}
	// Devices.
	ssd := NewSSD(DefaultSSDConfig(4096))
	ssd.WriteChain(0, 64)
	if ssd.WriteAmplification() != 1.0 {
		t.Fatal("fresh SSD WA != 1")
	}
	smr := NewSMR(1<<16, 1<<12)
	if smr.Zones() != 16 {
		t.Fatalf("zones = %d", smr.Zones())
	}
	hdd := DefaultHDD()
	if hdd.WriteChain(0, 10) <= 0 {
		t.Fatal("HDD chain cost zero")
	}
}

func TestPublicQueueModel(t *testing.T) {
	r := SolveQueue([]QueueCenter{{Name: "c", Demand: time.Millisecond}}, time.Millisecond, 4)
	if r.Throughput <= 0 || r.Latency <= 0 {
		t.Fatalf("result = %+v", r)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	if len(Experiments()) != 12 {
		t.Fatalf("experiments = %d", len(Experiments()))
	}
	if _, err := LookupExperiment("fig10"); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupExperiment("bogus"); err == nil {
		t.Fatal("bogus experiment resolved")
	}
	// Run the cheapest experiment through the public entry point.
	cfg := DefaultExperimentConfig()
	cfg.Scale = 0.1
	e, _ := LookupExperiment("fig10")
	var buf bytes.Buffer
	rows, err := e.Run(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("fig10 returned no rows")
	}
	if !strings.Contains(buf.String(), "TopAA") {
		t.Fatalf("fig10 output:\n%s", buf.String())
	}
}

func TestPublicPoolAndTiering(t *testing.T) {
	sys := NewSystem([]GroupSpec{testSpec()},
		[]VolSpec{{Name: "v", Blocks: 4 * RAIDAgnosticAABlocks}}, DefaultTunables(), 3)
	pool := sys.Agg.AddObjectPool(PoolSpec{Blocks: 2 * RAIDAgnosticAABlocks})
	lun := sys.Agg.Vols()[0].CreateLUN("l", 20000)
	SequentialFill(sys, lun, 1)
	sys.CP()
	moved := sys.TierOut(lun, func(lba uint64) bool { return lba < 5000 })
	sys.CP()
	if moved != 5000 || pool.Stats().BlocksTiered != 5000 {
		t.Fatalf("tiered %d, stats %+v", moved, pool.Stats())
	}
}
