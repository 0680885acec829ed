package shardq_test

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/hbps"
	"waflfs/internal/heapcache"
	"waflfs/internal/shardq"
)

// The staging protocol is tested here once, over both backings the system
// uses. What holding an entry means to each backing (untracked in the heap,
// tracked-but-unlisted in the HBPS) is pinned next to the backing, in
// heapcache/sharded_test.go and hbps/sharded_test.go.

// newHeap returns a heap of n AAs scoring 1000, 999, … (best is ID 0).
func newHeap(n int) *heapcache.Cache {
	scores := make([]uint64, n)
	for i := range scores {
		scores[i] = uint64(1000 - i)
	}
	return heapcache.NewFromScores(scores)
}

// newList returns an HBPS tracking the same n AAs at the same scores.
func newList(n int) *hbps.HBPS {
	h := hbps.New(hbps.Config{MaxScore: 1024, BinWidth: 64, ListCap: 256})
	for i := 0; i < n; i++ {
		h.Track(aa.ID(i), uint32(1000-i))
	}
	return h
}

// overBoth runs a protocol case over a heap and over an HBPS of n AAs.
func overBoth(t *testing.T, n int, heap func(*testing.T, shardq.Backing[heapcache.Entry]), list func(*testing.T, shardq.Backing[aa.ID])) {
	t.Run("heap", func(t *testing.T) { heap(t, newHeap(n)) })
	t.Run("hbps", func(t *testing.T) { list(t, newList(n)) })
}

func check[E any](t *testing.T, q *shardq.Queue[E]) {
	t.Helper()
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// popAccounting: a Pop says where its entry came from and what the refill
// it had to wait for moved.
func popAccounting[E any](t *testing.T, b shardq.Backing[E]) {
	q := shardq.New(b, 2, 4)
	refills := 0
	refill := func() { refills++ }
	for i := 0; i < 4; i++ {
		if _, p, ok := q.Pop(0, refill); !ok || p != (shardq.Popped{Held: true}) {
			t.Fatalf("pop %d = %v,%+v, want a plain held entry", i, ok, p)
		}
	}
	// Queue and standby dry: one synchronous round restages a full batch.
	_, p, ok := q.Pop(0, refill)
	if want := (shardq.Popped{Held: true, Refilled: true, Stalls: 1, Staged: 4}); !ok || p != want {
		t.Fatalf("dry pop = %v,%+v, want %+v", ok, p, want)
	}
	if refills != 1 {
		t.Fatalf("refill hook ran %d times, want 1", refills)
	}
	// A staged standby batch is swapped in without a stall.
	for q.Len(0) > 0 {
		q.Pop(0, refill)
	}
	q.Stage(0)
	if _, p, ok := q.Pop(0, refill); !ok || p != (shardq.Popped{Held: true}) {
		t.Fatalf("pop over a standby batch = %v,%+v, want no refill", ok, p)
	}
	check(t, q)
}

func TestPopAccounting(t *testing.T) {
	overBoth(t, 64, popAccounting[heapcache.Entry], popAccounting[aa.ID])
}

// hoarding: shards × batch exceeds the AA count, so the first shards hold
// everything. A dry shard must get the others' stock back and restage before
// it reports empty; only then is the backing really exhausted. refill is the
// backing's own replenish (an HBPS re-lists flushed IDs only through one).
func hoarding[E any](t *testing.T, b shardq.Backing[E], refill func()) {
	q := shardq.New(b, 4, 4) // 8 AAs: shards 0 and 1 hold all of them
	if q.Len(0) != 4 || q.Len(1) != 4 || q.Len(2) != 0 {
		t.Fatalf("dealt %d/%d/%d, want 4/4/0", q.Len(0), q.Len(1), q.Len(2))
	}
	refills := 0
	_, p, ok := q.Pop(2, func() { refills++; refill() })
	if want := (shardq.Popped{Held: true, Refilled: true, Stalls: 1, Staged: 4, Flushed: 8}); !ok || p != want {
		t.Fatalf("pop on a starved shard = %v,%+v, want %+v", ok, p, want)
	}
	if refills != 2 {
		t.Fatalf("refill hook ran %d times, want once per staging round (2)", refills)
	}
	if q.HeldCount() != 3 {
		t.Fatalf("%d held after the rebalance, want 3", q.HeldCount())
	}
	check(t, q)
	// Drain everything: the last Pop finds nothing anywhere.
	for ok {
		_, p, ok = q.Pop(2, nil)
	}
	if want := (shardq.Popped{Refilled: true, Stalls: 1}); p != want {
		t.Fatalf("pop on an exhausted backing = %+v, want %+v", p, want)
	}
}

func TestHoardingRebalance(t *testing.T) {
	overBoth(t, 8,
		func(t *testing.T, b shardq.Backing[heapcache.Entry]) { hoarding(t, b, func() {}) },
		func(t *testing.T, b shardq.Backing[aa.ID]) {
			h := b.(*hbps.HBPS)
			hoarding(t, b, func() {
				if h.NeedsReplenish() {
					h.Replenish(func(yield func(aa.ID, uint32)) {
						for i := 0; i < 8; i++ {
							yield(aa.ID(i), uint32(1000-i))
						}
					})
				}
			})
		})
}

// Rebalance is the refill for a front the caller rejects: it accumulates
// into the rejected pop's record.
func TestRebalance(t *testing.T) {
	c := newHeap(32)
	q := shardq.New[heapcache.Entry](c, 4, 4)
	e, p, _ := q.Pop(1, nil)
	c.GiveBack(e) // the caller returns the rejected front itself
	e2, p, ok := q.Rebalance(1, p)
	if want := (shardq.Popped{Held: true, Refilled: true, Stalls: 1, Staged: 4, Flushed: 15}); !ok || p != want {
		t.Fatalf("rebalance = %v,%+v, want %+v", ok, p, want)
	}
	if e2.ID != 0 {
		t.Fatalf("rebalance served AA %d, want the global best (0) another shard was hoarding", e2.ID)
	}
	if c.Len()+q.HeldCount() != 31 {
		t.Fatalf("%d tracked + %d held, want 31 (one AA is out)", c.Len(), q.HeldCount())
	}
	check(t, q)
}

// setBatch: the queue owns the batch size; a change applies from the next
// Stage, the low-water mark follows, and batches already held drain as is.
func setBatch[E any](t *testing.T, b shardq.Backing[E]) {
	q := shardq.New(b, 1, 4)
	q.SetBatch(16)
	if q.Len(0) != 4 {
		t.Fatalf("SetBatch changed a held batch: %d entries", q.Len(0))
	}
	if !q.Low(0) { // 4 ≤ 16/2
		t.Fatal("low-water mark did not follow the batch size")
	}
	if n := q.Stage(0); n != 16 {
		t.Fatalf("staged %d after SetBatch(16), want 16", n)
	}
	check(t, q)
	q.SetBatch(2)
	check(t, q) // the 16-entry standby batch is still within bounds
	for q.Len(0) > 0 {
		q.Pop(0, nil)
	}
	if _, p, _ := q.Pop(0, nil); p.Staged != 2 {
		t.Fatalf("staged %d after SetBatch(2), want 2", p.Staged)
	}
	q.SetBatch(0)
	q.FlushAll()
	if n := q.Stage(0); n != 1 {
		t.Fatalf("staged %d after SetBatch(0), want the minimum batch of 1", n)
	}
	check(t, q)
}

func TestSetBatch(t *testing.T) {
	overBoth(t, 64, setBatch[heapcache.Entry], setBatch[aa.ID])
}

// Reset rebinds the queue to a new backing object and forgets what it held
// (the old object keeps what is left in it); Restage gives everything back
// and deals again on the same object.
func TestResetAndRestage(t *testing.T) {
	old := newHeap(32)
	q := shardq.New[heapcache.Entry](old, 2, 4)
	q.Stage(0)
	q.AdvanceGen()
	fresh := newHeap(16)
	q.Reset(fresh)
	if old.Len() != 20 {
		t.Fatalf("Reset gave entries back to the old heap: %d tracked, want 20", old.Len())
	}
	if q.HeldCount() != 8 || fresh.Len() != 8 {
		t.Fatalf("after Reset: %d held, %d tracked; want 8 and 8 of the new heap", q.HeldCount(), fresh.Len())
	}
	q.HeldGens(func(shard int, gen uint64) {
		if gen != q.Gen() {
			t.Fatalf("shard %d dealt under gen %d, current %d", shard, gen, q.Gen())
		}
	})
	check(t, q)

	q.Pop(0, nil)
	q.Stage(1)
	fresh.Update(12, 2000) // the heap changed under the queue
	q.Restage()
	if q.HeldCount() != 8 || fresh.Len() != 7 {
		t.Fatalf("after Restage: %d held, %d tracked; want 8 and 7", q.HeldCount(), fresh.Len())
	}
	if e, _ := q.Peek(0); e.ID != 12 {
		t.Fatalf("shard 0 front is AA %d after Restage, want the new best (12)", e.ID)
	}
	check(t, q)
}

func TestHeldGensAndTamper(t *testing.T) {
	q := shardq.New[aa.ID](newList(64), 2, 4)
	q.AdvanceGen()
	q.Stage(1)
	var got []uint64
	q.HeldGens(func(shard int, gen uint64) { got = append(got, uint64(shard), gen) })
	if want := []uint64{0, 0, 1, 0, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("held gens (shard, gen) = %v, want %v", got, want)
	}
	if !q.Tamper(func(_ *aa.ID, gen *uint64) { *gen = q.Gen() + 1 }) {
		t.Fatal("tamper found no held batch")
	}
	got = got[:0]
	q.HeldGens(func(shard int, gen uint64) { got = append(got, uint64(shard), gen) })
	if got[1] != 2 {
		t.Fatalf("tampered stamp = %d, want 2", got[1])
	}
	q.FlushAll()
	if q.Tamper(func(*aa.ID, *uint64) {}) {
		t.Fatal("tamper reported a held batch on an empty queue")
	}
}

// The batch buffers survive swaps and flushes: steady-state staged picking
// allocates nothing.
func TestSteadyStateAllocs(t *testing.T) {
	c := newHeap(256)
	q := shardq.New[heapcache.Entry](c, 2, 4)
	shard := 0
	cycle := func() {
		e, _, ok := q.Pop(shard, nil)
		if !ok {
			t.Fatal("backing ran dry")
		}
		c.Insert(e.ID, e.Score-1) // the drained AA returns at the CP
		if q.Low(shard) {
			q.Stage(shard)
		}
		shard ^= 1
	}
	for i := 0; i < 64; i++ { // grow every buffer once
		cycle()
	}
	q.FlushAll()
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("steady-state pick cycle allocates %v times", n)
	}
	check(t, q)
}

// directProperty: over random mutate/pop sequences a depth-0 queue's Pop
// stream is the backing's own PopBest stream, and the queue never holds,
// stages or flushes anything.
func directProperty[E comparable](t *testing.T, mk func() shardq.Backing[E], mutate func(shardq.Backing[E], *rand.Rand)) {
	direct, via := mk(), mk()
	q := shardq.New(via, 0, 8)
	rd, rv := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	pops := 0
	for step := 0; step < 4000; step++ {
		if rd.Intn(3) > 0 {
			rv.Intn(3)
			mutate(direct, rd)
			mutate(via, rv)
			continue
		}
		rv.Intn(3)
		want, wantOK := direct.PopBest()
		got, p, ok := q.Pop(step%3, nil) // the shard is ignored at depth 0
		if got != want || ok != wantOK {
			t.Fatalf("step %d: queue popped %v,%v, backing %v,%v", step, got, ok, want, wantOK)
		}
		if ok && p != (shardq.Popped{}) {
			t.Fatalf("step %d: depth-0 pop observed %+v, want the zero record", step, p)
		}
		if ok {
			pops++
		}
		if q.HeldCount() != 0 || q.Low(0) || q.Stage(0) != 0 || q.Len(0) != 0 || q.FlushAll() != 0 {
			t.Fatalf("step %d: depth-0 queue holds or stages something", step)
		}
		if _, ok := q.Peek(0); ok {
			t.Fatalf("step %d: depth-0 queue has a front to peek", step)
		}
		q.Each(func(int, E) { t.Fatalf("step %d: depth-0 queue visits a held entry", step) })
		q.HeldGens(func(int, uint64) { t.Fatalf("step %d: depth-0 queue has a held batch", step) })
	}
	if pops < 500 {
		t.Fatalf("only %d successful pops compared", pops)
	}
	check(t, q)
	for i := 0; i < 64; i++ {
		mutate(via, rv)
	}
	if n := testing.AllocsPerRun(32, func() { q.Pop(0, nil) }); n != 0 {
		t.Fatalf("depth-0 Pop allocates %v times", n)
	}
}

func TestDepth0IsTheBackingsPopBest(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		directProperty(t,
			func() shardq.Backing[heapcache.Entry] { return heapcache.New(96) },
			func(b shardq.Backing[heapcache.Entry], r *rand.Rand) {
				c := b.(*heapcache.Cache)
				c.Insert(aa.ID(r.Intn(96)), uint64(r.Intn(500))) // insert or update
			})
	})
	t.Run("hbps", func(t *testing.T) {
		scores := map[shardq.Backing[aa.ID]]map[aa.ID]uint32{}
		directProperty(t,
			func() shardq.Backing[aa.ID] {
				h := hbps.New(hbps.Config{MaxScore: 64, BinWidth: 8, ListCap: 12})
				scores[h] = map[aa.ID]uint32{}
				return h
			},
			func(b shardq.Backing[aa.ID], r *rand.Rand) {
				h, id, s := b.(*hbps.HBPS), aa.ID(r.Intn(96)), uint32(r.Intn(65))
				if old, ok := scores[b][id]; ok {
					h.Update(id, old, s)
				} else {
					h.Track(id, s)
				}
				scores[b][id] = s
			})
	})
}

// At depth 0 a dry backing still gets its refill hook — the HBPS replenishes
// through it — but there is no staging round, so no stall.
func TestDepth0Refill(t *testing.T) {
	h := hbps.New(hbps.Config{MaxScore: 64, BinWidth: 8, ListCap: 12})
	q := shardq.New[aa.ID](h, 0, 8)
	if _, p, ok := q.Pop(0, nil); ok || p.Stalls != 0 {
		t.Fatalf("pop on an empty backing = %v,%+v", ok, p)
	}
	id, p, ok := q.Pop(0, func() { h.Track(5, 40) })
	if want := (shardq.Popped{Refilled: true}); !ok || id != 5 || p != want {
		t.Fatalf("pop after a refill = %d,%v,%+v, want AA 5 and %+v", id, ok, p, want)
	}
}

var sink int

// BenchmarkPop prices the queue's Pop against the backing's own PopBest: at
// depth 0 it must stay a call away from it, at depth 4 it is the shard-local
// fast path. Every popped entry goes straight back, so the structures keep
// their size.
func BenchmarkPop(b *testing.B) {
	b.Run("heap/PopBest", func(b *testing.B) {
		c := newHeap(1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, _ := c.PopBest()
			c.Insert(e.ID, e.Score)
			sink += int(e.ID)
		}
	})
	for _, depth := range []int{0, 4} {
		b.Run("heap/depth="+strconv.Itoa(depth), func(b *testing.B) {
			c := newHeap(1024)
			q := shardq.New[heapcache.Entry](c, depth, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, _, _ := q.Pop(i&3, nil)
				c.Insert(e.ID, e.Score)
				if q.Low(i & 3) {
					q.Stage(i & 3)
				}
				sink += int(e.ID)
			}
		})
	}
	b.Run("hbps/PopBest", func(b *testing.B) {
		h := newList(200)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id, _ := h.PopBest()
			h.Update(id, 1000-uint32(id), 0) // a bin migration re-lists it
			h.Update(id, 0, 1000-uint32(id))
			sink += int(id)
		}
	})
	for _, depth := range []int{0, 4} {
		b.Run("hbps/depth="+strconv.Itoa(depth), func(b *testing.B) {
			h := newList(200)
			q := shardq.New[aa.ID](h, depth, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, _, _ := q.Pop(i&3, nil)
				h.Update(id, 1000-uint32(id), 0)
				h.Update(id, 0, 1000-uint32(id))
				if q.Low(i & 3) {
					q.Stage(i & 3)
				}
				sink += int(id)
			}
		})
	}
}
