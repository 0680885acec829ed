package heapcache

import (
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/shardq"
)

// The staging protocol itself is tested once, over both backings, in
// internal/shardq; the cases here pin what staging means to the heap: held
// entries are untracked, keep their frozen scores and flush back intact.

func newShardedFixture(t *testing.T, n int, shards, batch int) (*Cache, *shardq.Queue[Entry]) {
	t.Helper()
	scores := make([]uint64, n)
	for i := range scores {
		scores[i] = uint64(1000 - i) // descending: best is ID 0
	}
	c := NewFromScores(scores)
	s := shardq.New[Entry](c, shards, batch)
	checkSharded(t, c, s)
	return c, s
}

// checkSharded validates the queue, the heap, and the rule that ties them:
// no held entry is still tracked in the shared heap.
func checkSharded(t *testing.T, c *Cache, s *shardq.Queue[Entry]) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s.Each(func(_ int, e Entry) {
		if c.Tracked(e.ID) {
			t.Fatalf("held AA %d still tracked in shared heap", e.ID)
		}
	})
}

func TestShardedInitialStaging(t *testing.T) {
	c, s := newShardedFixture(t, 64, 4, 8)
	if got := s.HeldCount(); got != 32 {
		t.Fatalf("held %d entries after construction, want 32", got)
	}
	if got := c.Len(); got != 32 {
		t.Fatalf("shared heap holds %d, want 32", got)
	}
	// Initial batches are dealt best-first shard by shard: shard 0 gets the
	// global best.
	e, ok := s.Peek(0)
	if !ok || e.ID != 0 || e.Score != 1000 {
		t.Fatalf("shard 0 front = %+v,%v, want ID 0 score 1000", e, ok)
	}
}

func TestShardedPopIsQueueOrdered(t *testing.T) {
	c, s := newShardedFixture(t, 64, 2, 4)
	var last uint64 = 1 << 62
	for i := 0; i < 4; i++ {
		e, p, ok := s.Pop(0, nil)
		if !ok || !p.Held || p.Refilled {
			t.Fatalf("pop %d = %v,%+v, want a held entry and no refill", i, ok, p)
		}
		if e.Score > last {
			t.Fatalf("pop %d: score %d rose above %d — batch not best-first", i, e.Score, last)
		}
		last = e.Score
	}
	checkSharded(t, c, s)
}

func TestShardedSwapHidesRefill(t *testing.T) {
	c, s := newShardedFixture(t, 64, 2, 4)
	// Stage a standby batch, then drain the queue: the next pop must swap
	// the standby batch in rather than stall.
	if n := s.Stage(0); n != 4 {
		t.Fatalf("staged %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if _, _, ok := s.Pop(0, nil); !ok {
			t.Fatalf("queue pop %d failed", i)
		}
	}
	before := s.Metrics().Swaps
	e, p, ok := s.Pop(0, nil)
	if !ok || p.Stalls != 0 {
		t.Fatalf("pop after drain = %v,%+v, want the standby batch and no stall", ok, p)
	}
	if s.Metrics().Swaps != before+1 {
		t.Fatalf("swap count %d, want %d", s.Metrics().Swaps, before+1)
	}
	if e.Score == 0 {
		t.Fatalf("swapped-in front has zero score: %+v", e)
	}
	checkSharded(t, c, s)
}

func TestShardedLowAndStall(t *testing.T) {
	c, s := newShardedFixture(t, 64, 2, 4)
	if s.Low(0) {
		t.Fatal("full queue reported low")
	}
	s.Pop(0, nil)
	s.Pop(0, nil)
	if !s.Low(0) { // 2 left == batch/2, no standby
		t.Fatal("half-drained queue with no standby not reported low")
	}
	s.Stage(0)
	if s.Low(0) {
		t.Fatal("queue with standby batch reported low")
	}
	// Exhaust shard 1's queue (it has no standby): the next pop must report
	// a stall and serve from a synchronously restaged batch.
	for i := 0; i < 4; i++ {
		if _, p, _ := s.Pop(1, nil); p.Stalls != 0 {
			t.Fatalf("pop %d stalled with entries queued", i)
		}
	}
	e, p, ok := s.Pop(1, nil)
	if !ok || !p.Refilled || p.Stalls != 1 || p.Staged != 4 || p.Flushed != 0 {
		t.Fatalf("pop on a dry shard = %+v,%v,%+v, want one stall staging 4", e, ok, p)
	}
	checkSharded(t, c, s)
}

func TestShardedFlushRestoresShared(t *testing.T) {
	c, s := newShardedFixture(t, 32, 4, 4)
	held := s.HeldCount()
	if n := s.FlushAll(); n != held {
		t.Fatalf("flushed %d, want %d", n, held)
	}
	if c.Len() != 32 {
		t.Fatalf("shared heap has %d after flush, want 32", c.Len())
	}
	if s.HeldCount() != 0 {
		t.Fatal("entries still held after FlushAll")
	}
	// Frozen scores were preserved.
	for id := aa.ID(0); id < 32; id++ {
		if got := c.Score(id); got != uint64(1000-int(id)) {
			t.Fatalf("AA %d score %d after flush, want %d", id, got, 1000-int(id))
		}
	}
	checkSharded(t, c, s)
}

func TestShardedBestSpansHeldAndShared(t *testing.T) {
	c, s := newShardedFixture(t, 64, 4, 8)
	e, ok := c.BestWith(s)
	if !ok || e.ID != 0 {
		t.Fatalf("Best = %+v,%v, want global best ID 0", e, ok)
	}
	// Consume the best few; Best must keep tracking the true max.
	s.Pop(0, nil)
	e, ok = c.BestWith(s)
	if !ok || e.Score != 999 {
		t.Fatalf("Best after pop = %+v,%v, want score 999", e, ok)
	}
	// With nothing held it is the heap's own Best.
	s.FlushAll()
	if e, _ = c.BestWith(s); e.Score != 999 {
		t.Fatalf("Best after flush = %+v, want score 999", e)
	}
}

func TestShardedTamperBreaksInvariant(t *testing.T) {
	_, s := newShardedFixture(t, 16, 2, 4)
	if !s.Tamper(func(e *Entry, _ *uint64) { e.Score += 7 }) {
		t.Fatal("tamper found no held entry")
	}
	e, _ := s.Peek(0)
	if e.Score != 1007 {
		t.Fatalf("tampered front score %d, want 1007", e.Score)
	}
}
