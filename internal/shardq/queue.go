// Package shardq implements the staging queue that sits between an AA cache
// and the allocator's pick path (§3.3: take the best AA off the cache, fill
// it, return it at the CP). One Queue serves both caches — the RAID-aware
// heap and the HBPS list — because the protocol is independent of what is
// being pooled: private batches over a shared pool.
//
// A queue has a depth. At depth 0 it holds nothing: Pop is the backing
// structure's own PopBest, nothing is ever staged, held or flushed, and the
// pick path is the paper's direct pick. At depth n each of n shards owns a
// bounded FIFO of entries staged out of the backing structure in best-first
// batches, plus one standby batch a refill pipeline fills ahead of
// exhaustion: when the FIFO drains, the standby batch swaps in without
// touching the shared structure on the pick path.
//
// Held entries (queued or standby) have been popped out of the backing
// structure; what that means is the structure's business (the heap no longer
// tracks them, so their scores are frozen at stage time; the HBPS keeps them
// histogram-tracked but unlisted). The queue itself guarantees that no AA is
// held twice: an entry the structure yields while a shard still holds its AA
// (a CP-fold bin migration can re-list a held HBPS ID) is discarded.
//
// A Queue is deterministic and not safe for concurrent use: the shard index
// models a per-worker context, but callers drive it from one goroutine with a
// fixed pick→shard assignment.
package shardq

import (
	"fmt"

	"waflfs/internal/aa"
)

// Backing is the structure a Queue stages out of.
type Backing[E any] interface {
	// PopBest removes and returns the structure's best entry.
	PopBest() (E, bool)
	// GiveBack returns an entry the queue held when the queue flushes.
	GiveBack(E)
	// IDOf names the AA an entry stands for.
	IDOf(E) aa.ID
}

// Queue stages entries of a Backing into per-shard pick queues.
type Queue[E any] struct {
	b      Backing[E]
	shards []shard[E]
	batch  int
	low    int
	// bound is the largest batch size in force since the queues were last
	// empty: SetBatch shrinks batch at once but held batches drain naturally.
	bound int

	// held is a bitset over AA IDs with one bit per held entry.
	held  []uint64
	nheld int

	// gen is the current CP generation. Each batch records the generation it
	// was staged under; pipelined CPs advance gen at each seal so the
	// watchdog can assert no held batch is stamped ahead of it.
	gen uint64

	m Metrics
}

// shard is one pick queue: queue[head:] is the live FIFO, staged the standby
// batch. Both buffers are retained across swaps and flushes.
type shard[E any] struct {
	queue               []E
	head                int
	staged              []E
	queueGen, stagedGen uint64
}

// Metrics counts what only the queue sees (picks, stalls and staged entries
// are the caller's to count, from Popped and Stage's result).
type Metrics struct {
	// Swaps counts standby batches swapped in when a queue drained — each
	// one is a refill that cost the pick path nothing.
	Swaps uint64
	// DupSkips counts entries discarded because their AA was already held.
	DupSkips uint64
}

// Popped is what a Pop observed on the way to its entry. Callers derive
// every charge and label from it, so the pick path is one body at any depth.
type Popped struct {
	// Held: the entry came out of a held batch; false means straight off
	// the backing structure (always, at depth 0).
	Held bool
	// Refilled: the shard was dry and a synchronous refill ran first.
	Refilled bool
	// Stalls counts synchronous staging rounds — refills the pick had to
	// wait for. There is nothing to stage into at depth 0, so never there.
	Stalls int
	// Staged and Flushed count the entries those rounds moved backing→queue
	// and queue→backing.
	Staged, Flushed int
}

// New returns a queue of the given depth (shards ≤ 0 is depth 0) over b with
// batches of at most batch entries, every shard's first batch already dealt
// so the first picks are shard-local. That staging is setup cost, as in
// Reset and Restage; callers charge only the staging they invoke.
func New[E any](b Backing[E], shards, batch int) *Queue[E] {
	q := &Queue[E]{shards: make([]shard[E], max(shards, 0))}
	q.SetBatch(batch)
	q.Reset(b)
	return q
}

// Metrics returns a copy of the traffic counters.
func (q *Queue[E]) Metrics() Metrics { return q.m }

// SetBatch changes the batch size (and the low-water mark, half of it) from
// the next Stage on; batches already held drain at their old size.
func (q *Queue[E]) SetBatch(batch int) {
	q.batch = max(batch, 1)
	q.low = q.batch / 2
	q.bound = max(q.bound, q.batch)
}

// Reset binds the queue to b — a new or wholesale rebuilt backing structure —
// forgetting whatever it held (those entries belonged to the old structure),
// and deals every shard a first batch.
func (q *Queue[E]) Reset(b Backing[E]) {
	q.b = b
	q.drop()
	q.Restage()
}

// Restage returns everything held to the backing structure and deals every
// shard a fresh first batch — for passes that changed the structure under
// the queue (segment cleaning).
func (q *Queue[E]) Restage() {
	q.FlushAll()
	for i := range q.shards {
		s := &q.shards[i]
		q.fill(&s.queue)
		s.queueGen = q.gen
	}
}

// fill tops dst up to batch entries off the backing structure, best-first,
// and returns the number added.
func (q *Queue[E]) fill(dst *[]E) int {
	n := 0
	for len(*dst) < q.batch {
		e, ok := q.b.PopBest()
		if !ok {
			break
		}
		id := q.b.IDOf(e)
		if q.Holds(id) {
			q.m.DupSkips++
			continue
		}
		for int(id>>6) >= len(q.held) {
			q.held = append(q.held, 0)
		}
		q.held[id>>6] |= 1 << (id & 63)
		q.nheld++
		*dst = append(*dst, e)
		n++
	}
	return n
}

// pop removes the shard's front entry, swapping the standby batch in when
// the queue has drained. At depth 0 it is the backing structure's PopBest.
func (q *Queue[E]) pop(shard int, p *Popped) (e E, ok bool) {
	if len(q.shards) == 0 {
		return q.b.PopBest()
	}
	s := &q.shards[shard]
	if s.head == len(s.queue) && len(s.staged) > 0 {
		s.queue, s.staged, s.head = s.staged, s.queue[:0], 0
		s.queueGen = s.stagedGen
		q.m.Swaps++
	}
	if s.head == len(s.queue) {
		return e, false
	}
	e = s.queue[s.head]
	if s.head++; s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	id := q.b.IDOf(e)
	q.held[id>>6] &^= 1 << (id & 63)
	q.nheld--
	p.Held = true
	return e, true
}

// Pop removes and returns the shard's best entry. A dry shard (queue and
// standby both empty; at depth 0, an empty backing structure) refills
// synchronously first: refill, when non-nil, lets the caller replenish the
// backing structure, then the shard restages and, if that yields nothing
// while other shards hoard stock (shards × batch can exceed the AA count),
// every shard's stock is flushed back and the shard restages once more.
// ok is false when all of that found nothing.
func (q *Queue[E]) Pop(shard int, refill func()) (e E, p Popped, ok bool) {
	if e, ok = q.pop(shard, &p); ok {
		return e, p, true
	}
	p.Refilled = true
	p.Stalls = min(len(q.shards), 1)
	for flushed := false; ; flushed = true {
		if refill != nil {
			refill()
		}
		p.Staged += q.Stage(shard)
		if e, ok = q.pop(shard, &p); ok || flushed || q.nheld == 0 {
			return e, p, ok
		}
		p.Flushed += q.FlushAll()
	}
}

// Rebalance is the refill for a shard whose front the caller could not use
// although the shard was not dry (a zero-score front is only the shard-local
// view): every shard's stock goes back, the shard restages and pops again.
// It accumulates into p, the Popped of the rejected front.
func (q *Queue[E]) Rebalance(shard int, p Popped) (E, Popped, bool) {
	p.Refilled = true
	p.Stalls++
	p.Flushed += q.FlushAll()
	p.Staged += q.Stage(shard)
	e, ok := q.pop(shard, &p)
	return e, p, ok
}

// Peek returns the shard's next held entry without consuming it.
func (q *Queue[E]) Peek(shard int) (e E, ok bool) {
	if len(q.shards) == 0 {
		return e, false
	}
	s := &q.shards[shard]
	if s.head < len(s.queue) {
		return s.queue[s.head], true
	}
	if len(s.staged) > 0 {
		return s.staged[0], true
	}
	return e, false
}

// Low reports whether the shard should be refilled ahead of exhaustion: no
// standby batch and the queue at or below half a batch. Never at depth 0.
func (q *Queue[E]) Low(shard int) bool {
	if len(q.shards) == 0 {
		return false
	}
	s := &q.shards[shard]
	return len(s.staged) == 0 && len(s.queue)-s.head <= q.low
}

// Stage tops the shard's standby batch up to batch entries off the backing
// structure and returns the number of entries moved.
func (q *Queue[E]) Stage(shard int) int {
	if len(q.shards) == 0 {
		return 0
	}
	s := &q.shards[shard]
	n := q.fill(&s.staged)
	if n > 0 {
		s.stagedGen = q.gen
	}
	return n
}

// AdvanceGen bumps the generation stamp; held batches keep the generation
// they were staged under.
func (q *Queue[E]) AdvanceGen() { q.gen++ }

// Gen returns the current staging generation.
func (q *Queue[E]) Gen() uint64 { return q.gen }

// batches visits every non-empty held batch with its generation stamp, in
// shard order, queue before standby, until yield returns false.
func (q *Queue[E]) batches(yield func(shard int, batch []E, gen *uint64) bool) {
	for i := range q.shards {
		s := &q.shards[i]
		if s.head < len(s.queue) && !yield(i, s.queue[s.head:], &s.queueGen) {
			return
		}
		if len(s.staged) > 0 && !yield(i, s.staged, &s.stagedGen) {
			return
		}
	}
}

// HeldGens visits the generation stamp of every non-empty held batch in
// shard order, queue before standby.
func (q *Queue[E]) HeldGens(yield func(shard int, gen uint64)) {
	q.batches(func(i int, _ []E, gen *uint64) bool { yield(i, *gen); return true })
}

// Each visits every held entry in shard order, queue before standby.
func (q *Queue[E]) Each(yield func(shard int, e E)) {
	q.batches(func(i int, batch []E, _ *uint64) bool {
		for _, e := range batch {
			yield(i, e)
		}
		return true
	})
}

// FlushAll gives every held entry back to the backing structure — shard
// order, queue before standby — and returns the count. Used when the
// shard-local view went stale or a pass needs the structure complete.
func (q *Queue[E]) FlushAll() int {
	q.Each(func(_ int, e E) { q.b.GiveBack(e) })
	return q.drop()
}

// drop empties every batch and the held set, keeping the buffers, and
// returns how many entries that forgot.
func (q *Queue[E]) drop() int {
	for i := range q.shards {
		s := &q.shards[i]
		s.queue, s.head, s.staged = s.queue[:0], 0, s.staged[:0]
	}
	n := q.nheld
	clear(q.held)
	q.nheld = 0
	q.bound = q.batch
	return n
}

// Len returns the number of entries the shard holds (queue + standby).
func (q *Queue[E]) Len(shard int) int {
	if len(q.shards) == 0 {
		return 0
	}
	s := &q.shards[shard]
	return len(s.queue) - s.head + len(s.staged)
}

// HeldCount returns the total entries held across all shards.
func (q *Queue[E]) HeldCount() int { return q.nheld }

// Holds reports whether any shard holds an entry for AA id.
func (q *Queue[E]) Holds(id aa.ID) bool {
	w := int(id >> 6)
	return w < len(q.held) && q.held[w]&(1<<(id&63)) != 0
}

// Tamper is a fault-injection hook for watchdog tests: it hands fn the first
// held entry and its batch's generation stamp to corrupt in place and
// reports whether anything was held. Production code never calls it.
func (q *Queue[E]) Tamper(fn func(e *E, gen *uint64)) (found bool) {
	q.batches(func(_ int, batch []E, gen *uint64) bool {
		fn(&batch[0], gen)
		found = true
		return false
	})
	return found
}

// CheckInvariants validates the queue's own structure: no AA held twice, the
// held set in step with the batches, batch bounds respected. What holding
// means to the backing structure (untracked in a heap, tracked-but-unlisted
// in an HBPS) is for its tests to check through Each.
func (q *Queue[E]) CheckInvariants() error {
	seen := make(map[aa.ID]bool)
	var err error
	q.Each(func(shard int, e E) {
		id := q.b.IDOf(e)
		if seen[id] && err == nil {
			err = fmt.Errorf("shardq: AA %d held twice (shard %d)", id, shard)
		}
		seen[id] = true
		if !q.Holds(id) && err == nil {
			err = fmt.Errorf("shardq: queued AA %d missing from the held set", id)
		}
	})
	if err == nil && len(seen) != q.nheld {
		err = fmt.Errorf("shardq: held set counts %d, batches hold %d", q.nheld, len(seen))
	}
	q.batches(func(shard int, batch []E, _ *uint64) bool {
		if len(batch) > q.bound && err == nil {
			err = fmt.Errorf("shardq: shard %d batch of %d exceeds bound %d", shard, len(batch), q.bound)
		}
		return true
	})
	return err
}
