package aa

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/raid"
)

func TestLinearTopology(t *testing.T) {
	space := block.R(1000, 1000+10*RAIDAgnosticBlocks)
	l := NewLinearDefault(space)
	if l.NumAAs() != 10 {
		t.Fatalf("NumAAs = %d", l.NumAAs())
	}
	if l.BlocksPerAA() != RAIDAgnosticBlocks {
		t.Fatalf("BlocksPerAA = %d", l.BlocksPerAA())
	}
	if l.AAOf(1000) != 0 || l.AAOf(1000+RAIDAgnosticBlocks) != 1 {
		t.Fatal("AAOf boundaries wrong")
	}
	segs := l.Segments(3)
	if len(segs) != 1 {
		t.Fatalf("linear AA has %d segments", len(segs))
	}
	if segs[0].Len() != RAIDAgnosticBlocks {
		t.Fatalf("segment len = %d", segs[0].Len())
	}
	if segs[0].Start != 1000+3*RAIDAgnosticBlocks {
		t.Fatalf("segment start = %v", segs[0].Start)
	}
}

func TestLinearTruncatedTail(t *testing.T) {
	l := NewLinear(block.R(0, 100), 40)
	if l.NumAAs() != 3 {
		t.Fatalf("NumAAs = %d", l.NumAAs())
	}
	segs := l.Segments(2)
	if segs[0].Len() != 20 {
		t.Fatalf("tail segment len = %d", segs[0].Len())
	}
	if l.AAOf(99) != 2 {
		t.Fatalf("AAOf(99) = %d", l.AAOf(99))
	}
}

func TestLinearPanics(t *testing.T) {
	l := NewLinear(block.R(0, 100), 40)
	for name, f := range map[string]func(){
		"AAOf outside":     func() { l.AAOf(100) },
		"Segments outside": func() { l.Segments(3) },
		"zero size":        func() { NewLinear(block.R(0, 10), 0) },
		"empty space":      func() { NewLinear(block.R(5, 5), 10) },
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

func stripedFixture() (*Striped, raid.Geometry) {
	geo := raid.Geometry{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 1 << 14, StartVBN: 500}
	return NewStriped(geo, 1024), geo
}

func TestStripedTopology(t *testing.T) {
	s, geo := stripedFixture()
	if s.NumAAs() != 16 {
		t.Fatalf("NumAAs = %d", s.NumAAs())
	}
	if s.BlocksPerAA() != 3*1024 {
		t.Fatalf("BlocksPerAA = %d", s.BlocksPerAA())
	}
	segs := s.Segments(1)
	if len(segs) != geo.DataDevices {
		t.Fatalf("segments = %d", len(segs))
	}
	for d, seg := range segs {
		if seg.Len() != 1024 {
			t.Fatalf("segment %d len = %d", d, seg.Len())
		}
		dd, dbn := geo.Locate(seg.Start)
		if dd != d || dbn != 1024 {
			t.Fatalf("segment %d starts at (%d,%d)", d, dd, dbn)
		}
	}
	// Every VBN of a stripe belongs to the same AA.
	for _, v := range geo.StripeVBNs(2048) {
		if s.AAOf(v) != 2 {
			t.Errorf("AAOf(%v) = %d, want 2", v, s.AAOf(v))
		}
	}
}

// Property: AAOf is consistent with Segments — every VBN in an AA's
// segments maps back to that AA, and segment lengths sum to BlocksPerAA.
func TestStripedSegmentsConsistent(t *testing.T) {
	s, _ := stripedFixture()
	for id := 0; id < s.NumAAs(); id++ {
		var total uint64
		for _, seg := range s.Segments(ID(id)) {
			total += seg.Len()
			for _, v := range []block.VBN{seg.Start, seg.End - 1} {
				if got := s.AAOf(v); got != ID(id) {
					t.Fatalf("AAOf(%v) = %d, want %d", v, got, id)
				}
			}
		}
		if total != s.BlocksPerAA() {
			t.Fatalf("AA %d total blocks = %d", id, total)
		}
	}
}

func TestLinearAAOfSegmentsRoundTrip(t *testing.T) {
	l := NewLinearDefault(block.R(0, 50*RAIDAgnosticBlocks))
	f := func(raw uint32) bool {
		v := block.VBN(uint64(raw) % l.Space().Len())
		id := l.AAOf(v)
		return l.Segments(id)[0].Contains(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestScore(t *testing.T) {
	l := NewLinear(block.R(0, 1000), 100)
	bm := bitmap.New(1000)
	bm.SetRange(block.R(0, 30))    // AA 0 loses 30
	bm.SetRange(block.R(250, 300)) // AA 2 loses 50
	if got := Score(l, bm, 0); got != 70 {
		t.Fatalf("Score(0) = %d", got)
	}
	if got := Score(l, bm, 1); got != 100 {
		t.Fatalf("Score(1) = %d", got)
	}
	if got := Score(l, bm, 2); got != 50 {
		t.Fatalf("Score(2) = %d", got)
	}
}

func TestScoreStriped(t *testing.T) {
	s, geo := stripedFixture()
	bm := bitmap.New(uint64(geo.VBNRange().End))
	// Allocate all of stripe 0 (one block per device in AA 0).
	for _, v := range geo.StripeVBNs(0) {
		bm.Set(v)
	}
	if got := Score(s, bm, 0); got != s.BlocksPerAA()-3 {
		t.Fatalf("Score = %d, want %d", got, s.BlocksPerAA()-3)
	}
}

func TestScoreAllChargesScan(t *testing.T) {
	l := NewLinearDefault(block.R(0, 4*RAIDAgnosticBlocks))
	bm := bitmap.New(4 * RAIDAgnosticBlocks)
	scores := ScoreAll(l, bm)
	if len(scores) != 4 {
		t.Fatalf("scores = %v", scores)
	}
	for _, s := range scores {
		if s != RAIDAgnosticBlocks {
			t.Fatalf("fresh AA score = %d", s)
		}
	}
	if bm.Stats().PageReads == 0 {
		t.Fatal("ScoreAll did not charge the bitmap walk")
	}
}

func TestSizing(t *testing.T) {
	if got := StripesPerAA(SizingParams{Media: MediaHDD}); got != DefaultHDDStripes {
		t.Fatalf("HDD stripes = %d", got)
	}
	// SSD: 4× erase unit.
	if got := StripesPerAA(SizingParams{Media: MediaSSD, EraseBlockBlocks: 2048}); got != 8192 {
		t.Fatalf("SSD stripes = %d", got)
	}
	// SSD without erase-block info falls back to HDD default.
	if got := StripesPerAA(SizingParams{Media: MediaSSD}); got != DefaultHDDStripes {
		t.Fatalf("SSD fallback = %d", got)
	}
	// SMR: 2× zone.
	if got := StripesPerAA(SizingParams{Media: MediaSMR, ZoneBlocks: 16384}); got != 32768 {
		t.Fatalf("SMR stripes = %d", got)
	}
	// SMR with AZCS: rounded up to a multiple of 63 data blocks, so the
	// on-disk AA span starts and ends on AZCS region boundaries.
	got := StripesPerAA(SizingParams{Media: MediaSMR, ZoneBlocks: 10000, AZCS: true})
	if got%block.AZCSRegionDataBlocks != 0 || got < 20000 {
		t.Fatalf("SMR+AZCS stripes = %d", got)
	}
	// HDD media with AZCS also aligns.
	got = StripesPerAA(SizingParams{Media: MediaHDD, AZCS: true})
	if got%block.AZCSRegionDataBlocks != 0 {
		t.Fatalf("HDD+AZCS stripes = %d", got)
	}
	for m, s := range map[Media]string{MediaHDD: "HDD", MediaSSD: "SSD", MediaSMR: "SMR", Media(9): "unknown"} {
		if m.String() != s {
			t.Errorf("Media(%d).String() = %q", m, m.String())
		}
	}
}

// ScoreAllInto must score what ScoreAll scores and charge the scan once,
// whatever dst holds: one too short to reuse, and one too long whose stale
// contents must not leak into the result.
func TestScoreAllIntoMatchesScoreAll(t *testing.T) {
	geo := raid.Geometry{DataDevices: 5, ParityDevices: 1, BlocksPerDevice: 1 << 15, StartVBN: 100}
	s := NewStriped(geo, 256)
	bm := bitmap.New(uint64(geo.VBNRange().End))
	// Pseudo-random allocation pattern.
	r := uint64(12345)
	for i := 0; i < 60000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		bm.Set(geo.VBNRange().Start + block.VBN(r%geo.Blocks()))
	}
	lt := NewLinearDefault(block.R(0, 8*RAIDAgnosticBlocks))
	lbm := bitmap.New(8 * RAIDAgnosticBlocks)
	lbm.SetRange(block.R(0, 40000))
	for _, tc := range []struct {
		name string
		topo Topology
		bm   *bitmap.Bitmap
	}{{"striped", s, bm}, {"linear", lt, lbm}} {
		before := tc.bm.Stats().PageReads
		want := ScoreAll(tc.topo, tc.bm)
		charge := tc.bm.Stats().PageReads - before
		stale := make([]uint64, len(want)+5)
		for i := range stale {
			stale[i] = 1<<64 - 1
		}
		for _, dst := range [][]uint64{make([]uint64, 1), stale} {
			before := tc.bm.Stats().PageReads
			got := ScoreAllInto(dst, tc.topo, tc.bm)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, len(dst)=%d: ScoreAllInto differs from ScoreAll", tc.name, len(dst))
			}
			if r := tc.bm.Stats().PageReads - before; r != charge {
				t.Fatalf("%s, len(dst)=%d: charged %d page reads, ScoreAll %d", tc.name, len(dst), r, charge)
			}
		}
	}
}

// opaque hides a topology's concrete type, so Score and Capacity take the
// generic Segments path instead of their Linear/Striped shortcuts.
type opaque struct{ Topology }

// The shortcuts must agree with the segment lists they skip, truncated final
// AAs and unaligned spaces included. The striped ones take each of the
// strided count's paths: word-aligned runs, runs whose start, length or
// stride is not, and runs holding whole metafile pages.
func TestScoreShortcutsMatchSegments(t *testing.T) {
	geo := raid.Geometry{DataDevices: 5, ParityDevices: 2, BlocksPerDevice: 1000, StartVBN: 300}
	aligned := raid.Geometry{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 13, StartVBN: 1 << 13}
	unaligned := raid.Geometry{DataDevices: 4, ParityDevices: 1, BlocksPerDevice: 1 << 13, StartVBN: 37}
	paged := raid.Geometry{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 5 * RAIDAgnosticBlocks, StartVBN: 4096}
	topos := []Topology{
		NewStriped(geo, 64), // 1000 stripes: the last AA is truncated
		NewStriped(aligned, 128),
		NewStriped(aligned, 100),   // neither the run nor every AA's start is word-aligned
		NewStriped(unaligned, 128), // every run starts mid-word
		NewStriped(unaligned, 300),
		NewStriped(paged, 2*RAIDAgnosticBlocks+63), // runs span whole pages; the last is truncated
		NewLinear(block.R(300, 5300), 512),
		NewLinearDefault(block.R(0, 3*RAIDAgnosticBlocks+17)),
	}
	rng := rand.New(rand.NewSource(9))
	for _, topo := range topos {
		bm := bitmap.New(uint64(topo.Space().End))
		for i := 0; i < int(topo.Space().Len())/3; i++ {
			bm.Set(topo.Space().Start + block.VBN(rng.Int63n(int64(topo.Space().Len()))))
		}
		for id := 0; id < topo.NumAAs(); id++ {
			if got, want := Score(topo, bm, ID(id)), Score(opaque{topo}, bm, ID(id)); got != want {
				t.Fatalf("%T AA %d: Score %d, via Segments %d", topo, id, got, want)
			}
			if got, want := Capacity(topo, ID(id)), Capacity(opaque{topo}, ID(id)); got != want {
				t.Fatalf("%T AA %d: Capacity %d, via Segments %d", topo, id, got, want)
			}
		}
	}
}

// ScoreAll charges the metafile scan once over the whole space — each page is
// read once, however many AAs or device segments share it. It must score
// what ranging over Segments scores, and allocate only its result.
func TestScoreAllChargesOnce(t *testing.T) {
	geo := raid.Geometry{DataDevices: 5, ParityDevices: 1, BlocksPerDevice: 1 << 15, StartVBN: 100}
	for _, tc := range []struct {
		name      string
		topo      Topology
		pageReads uint64
	}{
		// VBNs [100, 100+5·2^15) touch six pages; 128 AAs × 5 device
		// segments share them.
		{"striped", NewStriped(geo, 256), 6},
		// One 32k-block AA per page, and the truncated ninth.
		{"linear", NewLinearDefault(block.R(0, 8*RAIDAgnosticBlocks+17)), 9},
	} {
		space := tc.topo.Space()
		bm := bitmap.New(uint64(space.End))
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < int(space.Len())/3; i++ {
			bm.Set(space.Start + block.VBN(rng.Int63n(int64(space.Len()))))
		}
		want := make([]uint64, tc.topo.NumAAs())
		for id := range want {
			for _, seg := range tc.topo.Segments(ID(id)) {
				want[id] += bm.CountFree(seg)
			}
		}
		if got := ScoreAll(tc.topo, bm); !slices.Equal(got, want) {
			t.Fatalf("%s: ScoreAll scores differ from the per-segment walk", tc.name)
		}
		if r := bm.Stats().PageReads; r != tc.pageReads {
			t.Fatalf("%s: ScoreAll charged %d page reads, want %d", tc.name, r, tc.pageReads)
		}
		if n := testing.AllocsPerRun(10, func() { ScoreAll(tc.topo, bm) }); n != 1 {
			t.Errorf("%s: ScoreAll allocates %.0f times, want only the result", tc.name, n)
		}
	}
}
