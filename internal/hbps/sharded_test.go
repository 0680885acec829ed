package hbps

import (
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/shardq"
)

// The staging protocol itself is tested once, over both backings, in
// internal/shardq; the cases here pin what staging means to an HBPS: held
// IDs stay histogram-tracked but unlisted, and an ID the CP fold re-lists
// while a shard holds it is never queued twice.
//
// TestShardedHBPSStageSkipPredicate is gone with the predicate it tested:
// Stage took a "skip the in-flight cursor AA" callback that no caller could
// make fire (a pick only runs once the cursor is invalid). The duplicate
// skip it shared code with is TestShardedHBPSStageSkipsHeldDuplicates below.

func newShardedHBPS(t *testing.T, n int, shards, batch int) (*HBPS, *shardq.Queue[aa.ID]) {
	t.Helper()
	h := New(Config{MaxScore: 1024, BinWidth: 64, ListCap: 256})
	for i := 0; i < n; i++ {
		h.Track(aa.ID(i), uint32(1000-i))
	}
	s := shardq.New[aa.ID](h, shards, batch)
	checkShardedHBPS(t, h, s)
	return h, s
}

func checkShardedHBPS(t *testing.T, h *HBPS, s *shardq.Queue[aa.ID]) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedHBPSInitialStaging(t *testing.T) {
	h, s := newShardedHBPS(t, 64, 4, 8)
	if got := s.HeldCount(); got != 32 {
		t.Fatalf("held %d after construction, want 32", got)
	}
	if got := h.ListLen(); got != 32 {
		t.Fatalf("shared list has %d, want 32", got)
	}
	// Held IDs stay histogram-tracked but unlisted.
	s.Each(func(_ int, id aa.ID) {
		if h.Listed(id) {
			t.Fatalf("held AA %d still listed", id)
		}
	})
	if h.Total() != 64 {
		t.Fatalf("histogram total %d, want 64 (pops keep tracking)", h.Total())
	}
	// A flush gives nothing back — the IDs never left the histogram — and
	// leaves them unlisted until a replenish.
	if n := s.FlushAll(); n != 32 || h.ListLen() != 32 || h.Total() != 64 {
		t.Fatalf("flush returned %d, list %d, total %d; want 32, 32, 64", n, h.ListLen(), h.Total())
	}
}

func TestShardedHBPSPopSwapStall(t *testing.T) {
	h, s := newShardedHBPS(t, 64, 2, 4)
	if s.Low(0) {
		t.Fatal("full queue reported low")
	}
	s.Pop(0, nil)
	s.Pop(0, nil)
	if !s.Low(0) {
		t.Fatal("half-drained queue not reported low")
	}
	if n := s.Stage(0); n != 4 {
		t.Fatalf("staged %d, want 4", n)
	}
	s.Pop(0, nil)
	s.Pop(0, nil)
	before := s.Metrics().Swaps
	if _, p, ok := s.Pop(0, nil); !ok || p.Stalls != 0 {
		t.Fatalf("pop after drain = %v,%+v, want the standby batch and no stall", ok, p)
	}
	if s.Metrics().Swaps != before+1 {
		t.Fatalf("swaps %d, want %d", s.Metrics().Swaps, before+1)
	}
	// Drain shard 1's queue (no standby): the next pop stalls and restages.
	for i := 0; i < 4; i++ {
		s.Pop(1, nil)
	}
	if _, p, ok := s.Pop(1, nil); !ok || p.Stalls != 1 || p.Staged != 4 {
		t.Fatalf("pop on a dry shard = %v,%+v, want one stall staging 4", ok, p)
	}
	checkShardedHBPS(t, h, s)
}

// A CP-boundary fold can re-list an ID a shard still holds (bin migration
// re-lists unlisted IDs). Stage must discard the duplicate rather than
// queue it twice.
func TestShardedHBPSStageSkipsHeldDuplicates(t *testing.T) {
	// batch 16 swallows the whole space into the queue, so the shared list
	// is empty and every ID is held.
	h, s := newShardedHBPS(t, 16, 1, 16)
	if h.ListLen() != 0 {
		t.Fatalf("setup: list still has %d", h.ListLen())
	}
	s.Pop(0, nil) // consume the front so the queue is mid-CP realistic
	// Re-list a still-held ID via a bin-migrating Update, as the CP fold
	// would do after frees raised its score into another bin.
	heldID := aa.ID(5)
	if !s.Holds(heldID) {
		t.Fatal("setup: AA 5 not held")
	}
	old := uint32(1000 - int(heldID))
	h.Update(heldID, old, old-200) // crosses bins → tryList re-lists it
	if !h.Listed(heldID) {
		t.Fatalf("setup: AA %d not re-listed by Update", heldID)
	}
	before := s.Metrics().DupSkips
	if n := s.Stage(0); n != 0 {
		t.Fatalf("staged %d IDs, want 0 — only the duplicate was listed", n)
	}
	if s.Metrics().DupSkips != before+1 {
		t.Fatalf("dup skips %d, want %d", s.Metrics().DupSkips, before+1)
	}
	if h.Listed(heldID) {
		t.Fatal("duplicate still listed after skip")
	}
	checkShardedHBPS(t, h, s)
}
