package hbps

import (
	"math/rand"
	"testing"

	"waflfs/internal/aa"
)

func small() *HBPS {
	// 8 bins of width 8, max score 64, list capacity 10: small enough to
	// exercise every structural edge.
	return New(Config{MaxScore: 64, BinWidth: 8, ListCap: 10})
}

func TestBinMapping(t *testing.T) {
	h := small()
	cases := []struct {
		score uint32
		bin   int
	}{
		{64, 0}, {57, 0}, {56, 1}, {49, 1}, {9, 6}, {8, 7}, {1, 7}, {0, 7},
	}
	for _, c := range cases {
		if got := h.Bin(c.score); got != c.bin {
			t.Errorf("Bin(%d) = %d, want %d", c.score, got, c.bin)
		}
	}
	if h.BinFloor(0) != 57 || h.BinFloor(6) != 9 || h.BinFloor(7) != 0 {
		t.Errorf("BinFloor wrong: %d %d %d", h.BinFloor(0), h.BinFloor(6), h.BinFloor(7))
	}
	defer func() {
		if recover() == nil {
			t.Error("Bin(65) did not panic")
		}
	}()
	h.Bin(65)
}

func TestDefaultGeometry(t *testing.T) {
	h := New(DefaultConfig())
	if h.NumBins() != 32 {
		t.Fatalf("default bins = %d", h.NumBins())
	}
	// Paper: first bin is 31K-32K, second 30K-31K.
	if h.Bin(32768) != 0 || h.Bin(31745) != 0 || h.Bin(31744) != 1 || h.Bin(30721) != 1 {
		t.Fatal("paper bin boundaries wrong")
	}
	// Error margin: one bin is 1k/32k = 3.125% of the score space.
	if got := float64(DefaultBinWidth) / float64(DefaultMaxScore); got != 0.03125 {
		t.Fatalf("error margin = %v", got)
	}
}

func TestTrackAndPeek(t *testing.T) {
	h := small()
	h.Track(1, 10) // bin 6
	h.Track(2, 60) // bin 0
	h.Track(3, 30) // bin 4
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.Total() != 3 || h.ListLen() != 3 {
		t.Fatalf("total=%d list=%d", h.Total(), h.ListLen())
	}
	id, ok := h.PeekBest()
	if !ok || id != 2 {
		t.Fatalf("PeekBest = %d,%v", id, ok)
	}
	if !h.Listed(2) || h.Listed(9) {
		t.Fatal("Listed wrong")
	}
}

func TestPopOrderRespectsBins(t *testing.T) {
	h := small()
	// Track in scrambled order across bins.
	h.Track(10, 5)  // bin 7
	h.Track(11, 62) // bin 0
	h.Track(12, 33) // bin 3
	h.Track(13, 61) // bin 0
	h.Track(14, 40) // bin 3
	var bins []int
	for {
		id, ok := h.PopBest()
		if !ok {
			break
		}
		score := map[aa.ID]uint32{10: 5, 11: 62, 12: 33, 13: 61, 14: 40}[id]
		bins = append(bins, h.Bin(score))
		if err := h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if len(bins) != 5 {
		t.Fatalf("popped %d", len(bins))
	}
	for i := 1; i < len(bins); i++ {
		if bins[i] < bins[i-1] {
			t.Fatalf("pop bins out of order: %v", bins)
		}
	}
	// Pops drain the list but items remain tracked in the histogram.
	if h.Total() != 5 || h.ListLen() != 0 {
		t.Fatalf("after drain: total=%d list=%d", h.Total(), h.ListLen())
	}
	if !h.NeedsReplenish() {
		t.Fatal("drained structure must need replenish")
	}
}

func TestEvictionOnOverflow(t *testing.T) {
	h := small() // cap 10
	// Fill the list with bin-4 items.
	for i := 0; i < 10; i++ {
		h.Track(aa.ID(i), 30)
	}
	if h.ListLen() != 10 {
		t.Fatalf("list = %d", h.ListLen())
	}
	// A better item must evict a bin-4 item.
	h.Track(100, 60)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.ListLen() != 10 || !h.Listed(100) {
		t.Fatal("better item not listed after eviction")
	}
	if h.BinListed(4) != 9 || h.BinCount(4) != 10 {
		t.Fatalf("bin4 listed=%d count=%d", h.BinListed(4), h.BinCount(4))
	}
	// A same-or-worse item must NOT be listed (counts still track it).
	h.Track(101, 30)
	h.Track(102, 3)
	if h.Listed(101) || h.Listed(102) {
		t.Fatal("non-qualifying items were listed")
	}
	if h.BinCount(4) != 11 || h.BinCount(7) != 1 {
		t.Fatal("counts must remain accurate for unlisted items")
	}
	if id, _ := h.PeekBest(); id != 100 {
		t.Fatalf("best = %d", id)
	}
}

func TestUpdateMovesBetweenBins(t *testing.T) {
	h := small()
	h.Track(1, 30) // bin 4
	h.Track(2, 20) // bin 5
	h.Update(1, 30, 60)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.BinCount(4) != 0 || h.BinCount(0) != 1 {
		t.Fatal("counts not moved")
	}
	if id, _ := h.PeekBest(); id != 1 {
		t.Fatal("updated item not first")
	}
	// Within-bin update is a no-op structurally.
	h.Update(2, 20, 17)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.BinCount(5) != 1 {
		t.Fatal("within-bin update changed counts")
	}
}

func TestUpdateListsRisingUnlistedItem(t *testing.T) {
	h := small()
	for i := 0; i < 10; i++ {
		h.Track(aa.ID(i), 30) // fill list from bin 4
	}
	h.Track(50, 3) // bin 7, not listed
	if h.Listed(50) {
		t.Fatal("worst item listed")
	}
	// Frees raise its score into the top interval: it must enter the list.
	h.Update(50, 3, 64)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !h.Listed(50) {
		t.Fatal("risen item not inserted into list")
	}
	if id, _ := h.PeekBest(); id != 50 {
		t.Fatal("risen item not best")
	}
}

func TestUpdateDropsListedItem(t *testing.T) {
	h := small()
	h.Track(1, 60)
	h.Track(2, 30)
	h.Update(1, 60, 2) // falls to bin 7; list has room so it stays listed
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if id, _ := h.PeekBest(); id != 2 {
		t.Fatal("fallen item still first")
	}
	// With a full list of better items, a falling item leaves the list.
	h2 := small()
	for i := 0; i < 10; i++ {
		h2.Track(aa.ID(i), 60)
	}
	h2.Track(20, 55) // bin 1; cap full, bin 1 worse than... all bin 0
	if h2.Listed(20) {
		t.Fatal("bin-1 item listed into full bin-0 list")
	}
	h2.Update(0, 60, 5) // a listed bin-0 item falls to bin 7
	if err := h2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// It re-enters at bin 7 only if space; list had 10, removal made room,
	// so it is re-listed at the tail.
	if !h2.Listed(0) {
		t.Fatal("fallen item should re-list into spare capacity")
	}
	if id, _ := h2.PeekBest(); id == 0 {
		t.Fatal("fallen item must not be first")
	}
}

func TestUntrack(t *testing.T) {
	h := small()
	h.Track(1, 60)
	h.Track(2, 30)
	h.Untrack(1, 60)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.Total() != 1 || h.Listed(1) {
		t.Fatal("untrack incomplete")
	}
	// Untracking an unlisted item only fixes counts.
	for i := 10; i < 20; i++ {
		h.Track(aa.ID(i), 60)
	}
	h.Track(99, 2)
	if h.Listed(99) {
		t.Fatal("setup: 99 should be unlisted")
	}
	h.Untrack(99, 2)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplenish(t *testing.T) {
	h := small()
	scores := map[aa.ID]uint32{}
	for i := 0; i < 40; i++ {
		s := uint32((i * 13) % 65)
		scores[aa.ID(i)] = s
		h.Track(aa.ID(i), s)
	}
	// Drain the list.
	for {
		if _, ok := h.PopBest(); !ok {
			break
		}
	}
	if !h.NeedsReplenish() {
		t.Fatal("list should be dry")
	}
	h.Replenish(func(yield func(aa.ID, uint32)) {
		for id, s := range scores {
			yield(id, s)
		}
	})
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.ListLen() != 10 || h.Total() != 40 {
		t.Fatalf("after replenish: list=%d total=%d", h.ListLen(), h.Total())
	}
	// The first listed item must come from the best populated bin.
	id, _ := h.PeekBest()
	bestBin := 0
	for b := 0; b < h.NumBins(); b++ {
		if h.BinCount(b) > 0 {
			bestBin = b
			break
		}
	}
	if h.Bin(scores[id]) != bestBin {
		t.Fatalf("best item from bin %d, best populated %d", h.Bin(scores[id]), bestBin)
	}
}

// The paper's guarantee: the cache always provides an AA whose score is
// within one bin width (3.125% of max) of the true best, as long as the
// list is populated.
func TestErrorMarginGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := New(DefaultConfig())
	scores := map[aa.ID]uint32{}
	for i := 0; i < 5000; i++ {
		s := uint32(rng.Intn(32769))
		scores[aa.ID(i)] = s
		h.Track(aa.ID(i), s)
	}
	for round := 0; round < 2000; round++ {
		// Random score churn.
		id := aa.ID(rng.Intn(5000))
		ns := uint32(rng.Intn(32769))
		h.Update(id, scores[id], ns)
		scores[id] = ns

		if round%100 == 0 {
			got, ok := h.PeekBest()
			if !ok {
				t.Fatal("list dry under churn")
			}
			var max uint32
			for _, s := range scores {
				if s > max {
					max = s
				}
			}
			if scores[got]+DefaultBinWidth < max {
				t.Fatalf("round %d: provided score %d, best %d (margin exceeded)",
					round, scores[got], max)
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Model-based test: compare against a naive reference under random
// interleavings of every operation.
func TestRandomizedAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := New(Config{MaxScore: 64, BinWidth: 8, ListCap: 6})
		model := map[aa.ID]uint32{} // tracked id -> score
		nextID := aa.ID(0)
		for op := 0; op < 3000; op++ {
			switch rng.Intn(5) {
			case 0: // track
				s := uint32(rng.Intn(65))
				h.Track(nextID, s)
				model[nextID] = s
				nextID++
			case 1: // update
				for id, s := range model {
					ns := uint32(rng.Intn(65))
					h.Update(id, s, ns)
					model[id] = ns
					break
				}
			case 2: // untrack
				for id, s := range model {
					h.Untrack(id, s)
					delete(model, id)
					break
				}
			case 3: // pop: must come from best populated *listed* bin
				if id, ok := h.PopBest(); ok {
					if _, tracked := model[id]; !tracked {
						t.Fatalf("seed %d: popped untracked id %d", seed, id)
					}
				}
			case 4: // occasionally replenish
				if rng.Intn(20) == 0 {
					h.Replenish(func(yield func(aa.ID, uint32)) {
						for id, s := range model {
							yield(id, s)
						}
					})
				}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if h.Total() != uint64(len(model)) {
				t.Fatalf("seed %d op %d: total %d, model %d", seed, op, h.Total(), len(model))
			}
		}
		// Histogram counts must exactly match the model's bin census.
		census := make([]uint32, h.NumBins())
		for _, s := range model {
			census[h.Bin(s)]++
		}
		for b := range census {
			if h.BinCount(b) != census[b] {
				t.Fatalf("seed %d: bin %d count %d, model %d", seed, b, h.BinCount(b), census[b])
			}
		}
	}
}

func TestUnderflowPanics(t *testing.T) {
	h := small()
	for name, f := range map[string]func(){
		"Untrack empty bin": func() { h.Untrack(1, 60) },
		"Update empty bin":  func() { h.Update(1, 60, 3) },
		"bad geometry":      func() { New(Config{MaxScore: 100, BinWidth: 33, ListCap: 5}) },
		"zero cap":          func() { New(Config{MaxScore: 64, BinWidth: 8, ListCap: 0}) },
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

func BenchmarkUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	h := New(DefaultConfig())
	scores := make([]uint32, 1<<20)
	for i := range scores {
		scores[i] = uint32(rng.Intn(32769))
		h.Track(aa.ID(i), scores[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i & (1<<20 - 1)
		ns := uint32((scores[id] + 4096) % 32769)
		h.Update(aa.ID(id), scores[id], ns)
		scores[id] = ns
	}
}

// BenchmarkHBPSUpdate is the benchmark harness's hbps.update_ns without the
// harness: a volume of 2048 AAs, so about half of them are listed, and each
// update moves a random AA to a random score — most cross bins and enter or
// leave the list, which is where the position index is read and written.
// BenchmarkUpdate above, over 2^20 items, almost never touches a listed one.
func BenchmarkHBPSUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	h := New(DefaultConfig())
	scores := make([]uint32, 2048)
	for i := range scores {
		scores[i] = uint32(rng.Intn(32769))
		h.Track(aa.ID(i), scores[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := rng.Intn(len(scores))
		ns := uint32(rng.Intn(32769))
		h.Update(aa.ID(id), scores[id], ns)
		scores[id] = ns
	}
}

// TestWarmOpsDoNotAllocate: once the list and the position index have
// reached their working size, the operations a CP and a pick perform are
// array writes. A map behind the index made Update allocate on growth and
// pay two hash operations per listed move.
func TestWarmOpsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := New(DefaultConfig())
	scores := make([]uint32, 2048)
	for i := range scores {
		scores[i] = uint32(rng.Intn(32769))
		h.Track(aa.ID(i), scores[i])
	}
	update := func() {
		id := rng.Intn(len(scores))
		ns := uint32(rng.Intn(32769))
		h.Update(aa.ID(id), scores[id], ns)
		scores[id] = ns
	}
	popTrack := func() {
		id, ok := h.PopBest()
		if !ok {
			t.Fatal("list ran dry")
		}
		h.Untrack(id, scores[id])
		h.Track(id, scores[id])
	}
	for i := 0; i < 4096; i++ {
		update()
		popTrack()
	}
	if n := testing.AllocsPerRun(1000, update); n != 0 {
		t.Errorf("Update allocates %.1f times per call on a warm structure", n)
	}
	if n := testing.AllocsPerRun(1000, popTrack); n != 0 {
		t.Errorf("PopBest+Untrack+Track allocate %.1f times per cycle on a warm structure", n)
	}
	page := make([]byte, h.Config().MarshaledSize())
	if n := testing.AllocsPerRun(100, func() { h.MarshalTo(page) }); n != 0 {
		t.Errorf("MarshalTo allocates %.1f times per call", n)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPopTrackCycle(b *testing.B) {
	h := New(DefaultConfig())
	for i := 0; i < 1000; i++ {
		h.Track(aa.ID(i), 32768)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, ok := h.PopBest()
		if !ok {
			b.Fatal("dry")
		}
		h.Update(id, 32768, 100)
		h.Update(id, 100, 32768)
	}
}

// The introspection accessors: ListedAt must agree with EachListed,
// PeekBestBin with the list front, and BestTrackedBin with the histogram —
// the contracts the online watchdogs and pick provenance build on.
func TestIntrospectionAccessors(t *testing.T) {
	h := New(Config{MaxScore: 64, BinWidth: 8, ListCap: 16})
	if h.BestTrackedBin() != -1 {
		t.Fatal("empty HBPS reported a best tracked bin")
	}
	if _, _, ok := h.PeekBestBin(); ok {
		t.Fatal("empty HBPS reported a best listed item")
	}
	scores := map[aa.ID]uint32{1: 60, 2: 44, 3: 44, 4: 9, 5: 1}
	for id, sc := range scores {
		h.Track(id, sc)
	}
	// Cross-check ListedAt against EachListed, position by position.
	type slot struct {
		id  aa.ID
		bin int
	}
	var want []slot
	h.EachListed(func(id aa.ID, bin int) { want = append(want, slot{id, bin}) })
	if len(want) != h.ListLen() {
		t.Fatalf("EachListed visited %d, ListLen %d", len(want), h.ListLen())
	}
	for p, w := range want {
		id, bin := h.ListedAt(p)
		if id != w.id || bin != w.bin {
			t.Errorf("ListedAt(%d) = (%d,%d), EachListed saw (%d,%d)", p, id, bin, w.id, w.bin)
		}
	}
	// Best tracked bin: score 60 lands in the best-score bin for this
	// geometry; it must match Bin(60). Front of the list agrees.
	if got, want := h.BestTrackedBin(), h.Bin(60); got != want {
		t.Fatalf("BestTrackedBin = %d, want %d", got, want)
	}
	id, bin, ok := h.PeekBestBin()
	if !ok || bin != h.Bin(60) {
		t.Fatalf("PeekBestBin = (%d,%d,%v), want bin %d", id, bin, ok, h.Bin(60))
	}
	if front, _ := h.PeekBest(); front != id {
		t.Fatalf("PeekBestBin id %d disagrees with PeekBest %d", id, front)
	}
	// Untracking the best item moves the best tracked bin down.
	if _, ok := h.PopBest(); !ok {
		t.Fatal("PopBest failed")
	}
	h.Untrack(1, 60)
	if got, want := h.BestTrackedBin(), h.Bin(44); got != want {
		t.Fatalf("after untrack, BestTrackedBin = %d, want %d", got, want)
	}
}
