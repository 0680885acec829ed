package heapcache

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"waflfs/internal/aa"
)

func TestEmpty(t *testing.T) {
	c := New(10)
	if _, ok := c.Best(); ok {
		t.Fatal("Best on empty returned ok")
	}
	if _, ok := c.PopBest(); ok {
		t.Fatal("PopBest on empty returned ok")
	}
	if c.Len() != 0 || c.Capacity() != 10 {
		t.Fatalf("len=%d cap=%d", c.Len(), c.Capacity())
	}
}

func TestInsertBest(t *testing.T) {
	c := New(10)
	c.Insert(3, 100)
	c.Insert(7, 500)
	c.Insert(1, 300)
	best, ok := c.Best()
	if !ok || best.ID != 7 || best.Score != 500 {
		t.Fatalf("Best = %+v", best)
	}
	if c.Score(1) != 300 {
		t.Fatalf("Score(1) = %d", c.Score(1))
	}
	if !c.Tracked(3) || c.Tracked(4) {
		t.Fatal("Tracked wrong")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertExistingUpdates(t *testing.T) {
	c := New(4)
	c.Insert(0, 10)
	c.Insert(0, 99)
	if c.Len() != 1 || c.Score(0) != 99 {
		t.Fatalf("len=%d score=%d", c.Len(), c.Score(0))
	}
}

func TestPopBestDrainsInOrder(t *testing.T) {
	scores := []uint64{5, 9, 1, 7, 3, 9, 0, 2}
	c := NewFromScores(scores)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		e, ok := c.PopBest()
		if !ok {
			break
		}
		got = append(got, e.Score)
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]uint64(nil), scores...)
	sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
	if len(got) != len(want) {
		t.Fatalf("drained %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestUpdateMoves(t *testing.T) {
	c := NewFromScores([]uint64{10, 20, 30})
	c.Update(0, 100)
	if best, _ := c.Best(); best.ID != 0 {
		t.Fatalf("Best after raise = %+v", best)
	}
	c.Update(0, 1)
	if best, _ := c.Best(); best.ID != 2 {
		t.Fatalf("Best after drop = %+v", best)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemove(t *testing.T) {
	c := NewFromScores([]uint64{10, 20, 30, 40})
	c.Remove(3)
	if c.Tracked(3) {
		t.Fatal("removed AA still tracked")
	}
	if best, _ := c.Best(); best.ID != 2 {
		t.Fatalf("Best after remove = %+v", best)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUntrackedPanics(t *testing.T) {
	c := New(4)
	for name, f := range map[string]func(){
		"Score":     func() { c.Score(0) },
		"Update":    func() { c.Update(0, 1) },
		"Remove":    func() { c.Remove(0) },
		"InsertOOB": func() { c.Insert(4, 1) },
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

func TestTopK(t *testing.T) {
	scores := make([]uint64, 100)
	rng := rand.New(rand.NewSource(5))
	for i := range scores {
		scores[i] = uint64(rng.Intn(10000))
	}
	c := NewFromScores(scores)
	top := c.TopK(10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d", len(top))
	}
	sorted := append([]uint64(nil), scores...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	for i, e := range top {
		if e.Score != sorted[i] {
			t.Fatalf("TopK[%d].Score = %d, want %d", i, e.Score, sorted[i])
		}
	}
	// TopK must not disturb the heap.
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.TopK(1000); len(got) != 100 {
		t.Fatalf("TopK over-ask returned %d", len(got))
	}
	if got := c.TopK(0); got != nil {
		t.Fatalf("TopK(0) = %v", got)
	}
}

// Property: after an arbitrary sequence of operations, Best() returns a
// maximal score and invariants hold.
func TestRandomOperations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 200
		c := New(n)
		ref := make(map[aa.ID]uint64)
		for i := 0; i < 2000; i++ {
			id := aa.ID(rng.Intn(n))
			switch rng.Intn(4) {
			case 0:
				s := uint64(rng.Intn(32768))
				c.Insert(id, s)
				ref[id] = s
			case 1:
				if _, ok := ref[id]; ok {
					s := uint64(rng.Intn(32768))
					c.Update(id, s)
					ref[id] = s
				}
			case 2:
				if _, ok := ref[id]; ok {
					c.Remove(id)
					delete(ref, id)
				}
			case 3:
				if e, ok := c.PopBest(); ok {
					var max uint64
					for _, s := range ref {
						if s > max {
							max = s
						}
					}
					if e.Score != max {
						return false
					}
					delete(ref, e.ID)
				}
			}
		}
		if c.CheckInvariants() != nil {
			return false
		}
		if c.Len() != len(ref) {
			return false
		}
		if e, ok := c.Best(); ok {
			var max uint64
			for _, s := range ref {
				if s > max {
					max = s
				}
			}
			if e.Score != max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The paper's sizing example: a RAID group of 16TiB devices has ~1M
// default-sized AAs and the cache costs ~1MiB. Verify we can build and
// operate at that scale quickly.
func TestMillionAAs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 1 << 20
	scores := make([]uint64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range scores {
		scores[i] = uint64(rng.Intn(4096 * 14))
	}
	c := NewFromScores(scores)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		e, _ := c.PopBest()
		c.Insert(e.ID, e.Score/2)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpdateRebalance(b *testing.B) {
	const n = 1 << 20
	scores := make([]uint64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range scores {
		scores[i] = uint64(rng.Intn(57344))
	}
	c := NewFromScores(scores)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := aa.ID(i & (n - 1))
		c.Update(id, uint64(rng.Intn(57344)))
	}
}

func BenchmarkPopReinsert(b *testing.B) {
	c := NewFromScores(make([]uint64, 1<<20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := c.PopBest()
		c.Insert(e.ID, e.Score+1)
	}
}

// Second must always equal Best observed after popping the best — the
// runner-up contract the pick-provenance layer relies on.
func TestSecondMatchesBestAfterPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(64)
	for id := 0; id < 64; id++ {
		c.Insert(aa.ID(id), uint64(rng.Intn(1000)))
	}
	for c.Len() > 0 {
		second, okSecond := c.Second()
		if _, ok := c.PopBest(); !ok {
			t.Fatal("PopBest failed on non-empty heap")
		}
		next, okNext := c.Best()
		if okSecond != okNext || second != next {
			t.Fatalf("Second() = %+v,%v but Best() after pop = %+v,%v",
				second, okSecond, next, okNext)
		}
	}
	if _, ok := c.Second(); ok {
		t.Fatal("Second() on empty heap reported an entry")
	}
}

// sortedTop is the oracle for TopK: the first k of a full sort of the
// tracked entries by (score descending, id ascending).
func sortedTop(c *Cache, k int) []Entry {
	all := c.Entries()
	sort.Slice(all, func(i, j int) bool { return higher(all[i], all[j]) })
	if k > len(all) {
		k = len(all)
	}
	if k <= 0 {
		return nil
	}
	return all[:k]
}

// TestTopKMatchesFullSort holds the selection to the oracle, element for
// element, on heaps with heavy score ties (ties break to the lower id, and the
// TopAA block is written in this order), on a RAID group's 512 of 1024 with
// wide or tied scores, on roots too large for a packed key, at the edge values
// of k, across random mutations, and checks it leaves the heap as it found it.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 64; trial++ {
		n := 1 + rng.Intn(300)
		distinct := uint64(1 + rng.Intn(6)) // few scores, many ties
		var base uint64
		switch trial % 8 {
		case 5: // a RAID group's AAs, scores as wide as 32k
			n, distinct = 1024, 32768
		case 6: // a RAID group's AAs, heavily tied
			n = 1024
		case 7: // scores that do not pack into 32 bits
			base = 1 << 32
		}
		scores := make([]uint64, n)
		for i := range scores {
			scores[i] = base + uint64(rng.Int63n(int64(distinct)))
		}
		if base > 0 {
			scores[rng.Intn(n)] = 1<<32 - 1 // ties across the packing limit
		}
		c := NewFromScores(scores)
		for round := 0; round < 6; round++ {
			for _, k := range []int{0, 1, c.Len() - 1, c.Len(), c.Len() + 5, raidAwareTop} {
				want := sortedTop(c, k)
				got := c.TopK(k)
				if len(got) != len(want) {
					t.Fatalf("trial %d: TopK(%d) of %d returned %d entries, want %d", trial, k, c.Len(), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: TopK(%d)[%d] = %v, want %v", trial, k, i, got[i], want[i])
					}
				}
				// The append form extends what it is given and leaves it alone.
				prefix := []Entry{{ID: 7, Score: 7}}
				ext := c.AppendTopK(prefix, k)
				if len(ext) != 1+len(want) || ext[0] != prefix[0] {
					t.Fatalf("trial %d: AppendTopK(%d) disturbed its destination", trial, k)
				}
				for i := range want {
					if ext[1+i] != want[i] {
						t.Fatalf("trial %d: AppendTopK(%d)[%d] = %v, want %v", trial, k, i, ext[1+i], want[i])
					}
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("trial %d: TopK disturbed the heap: %v", trial, err)
			}
			for op := 0; op < 50; op++ {
				id := aa.ID(rng.Intn(n))
				switch rng.Intn(3) {
				case 0:
					if c.Tracked(id) {
						c.Update(id, base+uint64(rng.Int63n(int64(distinct))))
					}
				case 1:
					c.PopBest()
				case 2:
					c.Insert(id, base+uint64(rng.Int63n(int64(distinct))))
				}
			}
		}
	}
}

// A remount rebuilds the cache in place, so the storage it had — AppendTopK's
// key scratch included — serves the rebuilt cache: neither a reset nor the
// exports after it allocate, and a reset cache reads as a new one would.
func TestResetKeepsStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	scores := make([]uint64, 1024)
	for i := range scores {
		scores[i] = uint64(rng.Intn(768))
	}
	c := NewFromScores(scores)
	dst := c.AppendTopK(nil, raidAwareTop)
	for _, tc := range []struct {
		name  string
		reset func()
	}{
		{"ResetFromScores", func() { c.ResetFromScores(scores) }},
		{"Reset", func() {
			c.Reset()
			for id := 0; id < raidAwareTop; id++ {
				c.Insert(aa.ID(id), scores[id])
			}
		}},
	} {
		if n := testing.AllocsPerRun(20, func() {
			tc.reset()
			dst = c.AppendTopK(dst[:0], raidAwareTop)
		}); n != 0 {
			t.Errorf("%s then AppendTopK: %.0f allocations, want 0", tc.name, n)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	c.ResetFromScores(scores)
	fresh := NewFromScores(scores)
	if c.Metrics() != fresh.Metrics() || c.Len() != fresh.Len() || c.Capacity() != fresh.Capacity() {
		t.Fatalf("reset cache reads %+v len %d, a new one %+v len %d", c.Metrics(), c.Len(), fresh.Metrics(), fresh.Len())
	}
	if got, want := c.TopK(raidAwareTop), fresh.TopK(raidAwareTop); !slices.Equal(got, want) {
		t.Fatal("reset cache exports a different top")
	}
	c.Reset()
	if c.Len() != 0 || c.Metrics() != (Metrics{}) || c.Tracked(0) {
		t.Fatalf("Reset left %d entries, metrics %+v", c.Len(), c.Metrics())
	}
}

// raidAwareTop is the k the TopAA store asks for (topaa.RAIDAwareEntries).
const raidAwareTop = 512

// BenchmarkTopK512of1024 prices the export of one RAID group's TopAA block:
// the 512 best of 1024 AAs, into a reused destination, as every CP does.
func BenchmarkTopK512of1024(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	scores := make([]uint64, 1024)
	for i := range scores {
		scores[i] = uint64(rng.Intn(768))
	}
	c := NewFromScores(scores)
	var dst []Entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.AppendTopK(dst[:0], raidAwareTop)
	}
}
