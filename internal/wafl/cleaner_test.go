package wafl

import (
	"math/rand"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

func TestCleanBestAAsProducesEmptyAAs(t *testing.T) {
	s, lun := agedSystem(t, DefaultTunables(), 20)
	g := s.Agg.groups[0]

	// Count completely empty AAs before and after.
	countEmpty := func() int {
		n := 0
		for id := 0; id < g.topo.NumAAs(); id++ {
			if aa.Score(g.topo, s.Agg.bm, aa.ID(id)) == aaBlockCount(g.topo, aa.ID(id)) {
				n++
			}
		}
		return n
	}
	before := countEmpty()
	st := s.CleanBestAAs(g, 8)
	after := countEmpty()

	if st.AAsCleaned+st.AlreadyEmpty != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if after < before+st.AAsCleaned {
		t.Fatalf("empty AAs %d -> %d after cleaning %d", before, after, st.AAsCleaned)
	}
	// Relocation preserved every LUN block and all invariants.
	s.CP()
	checkConsistency(t, s)
	// Reads of relocated blocks still resolve.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1000; i++ {
		s.Read(lun, uint64(rng.Intn(int(lun.Blocks()))), 1)
	}
}

func TestCleanerRelocatesOnlyUsedBlocks(t *testing.T) {
	s, _ := agedSystem(t, DefaultTunables(), 22)
	g := s.Agg.groups[1]
	usedBefore := s.Agg.bm.Used()
	st := s.CleanBestAAs(g, 4)
	if s.Agg.bm.Used() != usedBefore {
		t.Fatalf("cleaning changed used count: %d -> %d", usedBefore, s.Agg.bm.Used())
	}
	if st.BlocksRelocated == 0 && st.AlreadyEmpty == 0 {
		t.Fatalf("cleaner did nothing: %+v", st)
	}
}

func TestCleanerRequiresCPBoundary(t *testing.T) {
	s, lun := agedSystem(t, DefaultTunables(), 23)
	s.Write(lun, 1, 1) // dirty buffer
	defer func() {
		if recover() == nil {
			t.Fatal("cleaning with pending writes did not panic")
		}
	}()
	s.CleanBestAAs(s.Agg.groups[0], 1)
}

// A sealed generation in flight is not a boundary either: the cleaner
// re-inserts cleaned AAs at their fresh bitmap score and clears only the
// open ledger, so the sealed delta would fold on top at the next flush and
// leave a cached score above the AA's capacity. Before atBoundary() the
// cleaner only looked at the dirty buffer and this sequence ended with
// Scrub reporting a cached score of 781 for a 768-block AA.
func TestCleanerRefusesGenerationInFlight(t *testing.T) {
	tun := DefaultTunables()
	tun.Pipeline = true
	tun.CPEveryOps = 1 << 30
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 12 * aa.RAIDAgnosticBlocks}}, tun, 1)
	lun := s.Agg.Vols()[0].CreateLUN("l", 360000)
	for lba := uint64(0); lba < 360000; lba++ {
		s.Write(lun, lba, 1)
		if s.pendingBlocks >= 8192 {
			s.CP()
		}
	}
	rng := rand.New(rand.NewSource(1))
	round := func() {
		for i := 0; i < 4096; i++ {
			s.Write(lun, uint64(rng.Intn(360000)), 1)
		}
		s.CP()
	}
	for i := 0; i < 6; i++ {
		round()
	}
	if !s.InFlight() {
		t.Fatal("no generation in flight after a depth-2 CP")
	}
	for _, g := range s.Agg.Groups() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rg%d: cleaning with a generation in flight did not panic", g.Index)
				}
			}()
			s.CleanBestAAs(g, 24)
		}()
	}
	round()
	s.Drain()
	if rep := s.Agg.Scrub(); !rep.Clean() {
		t.Fatalf("scrub: %v", rep)
	}
}

func TestCleanerRequiresCache(t *testing.T) {
	tun := Tunables{AggregateCacheEnabled: false, VolCacheEnabled: true}
	s := testSystem(t, tun)
	defer func() {
		if recover() == nil {
			t.Fatal("cleaning without cache did not panic")
		}
	}()
	s.CleanBestAAs(s.Agg.groups[0], 1)
}

func TestCleanerOnFreshSystemIsNoop(t *testing.T) {
	s := testSystem(t, DefaultTunables())
	st := s.CleanBestAAs(s.Agg.groups[0], 3)
	if st.AAsCleaned != 0 || st.AlreadyEmpty != 3 || st.BlocksRelocated != 0 {
		t.Fatalf("fresh clean stats = %+v", st)
	}
}

func TestInvertRuns(t *testing.T) {
	space := block.R(10, 100)
	free := []block.Range{block.R(10, 20), block.R(50, 60)}
	used := invertRuns(free, space)
	want := []block.Range{block.R(20, 50), block.R(60, 100)}
	if len(used) != len(want) {
		t.Fatalf("used = %v", used)
	}
	for i := range want {
		if used[i] != want[i] {
			t.Fatalf("used[%d] = %v, want %v", i, used[i], want[i])
		}
	}
	// All free: no used runs. All used: one run.
	if got := invertRuns([]block.Range{space}, space); len(got) != 0 {
		t.Fatalf("all-free: %v", got)
	}
	if got := invertRuns(nil, space); len(got) != 1 || got[0] != space {
		t.Fatalf("all-used: %v", got)
	}
}
