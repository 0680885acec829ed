// Package heapcache implements the RAID-aware allocation-area cache: an
// in-memory max-heap of all AAs in a RAID group sorted by score (§3.3.1 of
// the paper).
//
// The heap is rebalanced at the end of each consistency point after the
// batched score updates for AAs whose blocks were allocated or freed. The
// memory cost — one entry per AA — is justified for RAID groups because
// selecting the single best AA has a large effect on full-stripe writes and
// write-chain length; the RAID-agnostic case uses package hbps instead.
//
// The cache supports partial population so that a TopAA metafile can seed
// it with the 512 best AAs at mount time while a background walk inserts the
// rest (§3.4).
package heapcache

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"waflfs/internal/aa"
	"waflfs/internal/shardq"
)

// Entry pairs an allocation area with its score (free-block count).
type Entry struct {
	ID    aa.ID
	Score uint64
}

// Cache is an indexed max-heap over AA scores. The zero value is not usable;
// call New.
type Cache struct {
	heap []Entry
	// pos maps AA id -> index in heap, or -1 when the AA is not tracked.
	pos []int32
	// keys is AppendTopK's scratch, kept between calls and across resets;
	// only a cache whose top is exported ever allocates it.
	keys []uint64

	m Metrics
}

// Metrics counts the structural work the heap has done since construction
// or its last reset (bulk heapify in NewFromScores and ResetFromScores is not
// counted). Swaps is the rebalance cost: one sift step moved an entry. The
// observability layer exposes these per RAID group.
type Metrics struct {
	Inserts uint64
	Updates uint64
	Pops    uint64
	Removes uint64
	Swaps   uint64
}

// Ops sums the logical operations (not swaps).
func (m Metrics) Ops() uint64 { return m.Inserts + m.Updates + m.Pops + m.Removes }

// Metrics returns the cache's operation counters.
func (c *Cache) Metrics() Metrics { return c.m }

// New creates an empty cache able to track AAs with ids in [0, numAAs).
func New(numAAs int) *Cache {
	if numAAs <= 0 {
		panic("heapcache: numAAs must be positive")
	}
	// The heap is sized for every AA up front: a TopAA seed fills half of it
	// and the background walk the rest, without regrowing on the way.
	c := &Cache{heap: make([]Entry, 0, numAAs), pos: make([]int32, numAAs)}
	for i := range c.pos {
		c.pos[i] = -1
	}
	return c
}

// NewFromScores builds a fully populated cache from a score-per-AA slice in
// O(n) (heapify), as a cache rebuild from a bitmap walk does.
func NewFromScores(scores []uint64) *Cache {
	c := &Cache{}
	c.ResetFromScores(scores)
	return c
}

// Reset empties the cache in place, keeping its id space and its storage, as
// a TopAA-seeded remount does before inserting the seed. The cache then
// reports the Metrics a new one would.
func (c *Cache) Reset() {
	for _, e := range c.heap {
		c.pos[e.ID] = -1
	}
	c.heap = c.heap[:0]
	c.m = Metrics{}
}

// ResetFromScores is NewFromScores over the cache's own storage, which grows
// only if scores describes more AAs than it has held: a bitmap-walk remount
// heapifies its scores where the previous heap was.
func (c *Cache) ResetFromScores(scores []uint64) {
	n := len(scores)
	if n <= 0 {
		panic("heapcache: numAAs must be positive")
	}
	c.heap = slices.Grow(c.heap[:0], n)[:n]
	c.pos = slices.Grow(c.pos[:0], n)[:n]
	for i, s := range scores {
		c.heap[i] = Entry{ID: aa.ID(i), Score: s}
		c.pos[i] = int32(i)
	}
	for i := n/2 - 1; i >= 0; i-- {
		c.siftDown(i)
	}
	c.m = Metrics{} // bulk heapify is construction, not operational work
}

// Len returns the number of AAs currently tracked.
func (c *Cache) Len() int { return len(c.heap) }

// Capacity returns the AA id space size.
func (c *Cache) Capacity() int { return len(c.pos) }

// Tracked reports whether AA id is in the heap.
func (c *Cache) Tracked(id aa.ID) bool {
	return int(id) < len(c.pos) && c.pos[id] >= 0
}

// Entries returns a copy of every tracked (AA, score) pair in internal heap
// order. This is the cheap O(n) enumeration hook analytics use to histogram
// the cache's view of AA scores without disturbing heap invariants; callers
// that need a deterministic ranking should sort or use TopK.
func (c *Cache) Entries() []Entry {
	return append([]Entry(nil), c.heap...)
}

// Score returns the cached score of AA id; it panics if untracked.
func (c *Cache) Score(id aa.ID) uint64 {
	c.mustTracked(id)
	return c.heap[c.pos[id]].Score
}

func (c *Cache) mustTracked(id aa.ID) {
	if !c.Tracked(id) {
		panic(fmt.Sprintf("heapcache: AA %d not tracked", id))
	}
}

// Insert adds AA id with the given score, or updates it if already present.
func (c *Cache) Insert(id aa.ID, score uint64) {
	if int(id) >= len(c.pos) {
		panic(fmt.Sprintf("heapcache: AA %d outside capacity %d", id, len(c.pos)))
	}
	if c.Tracked(id) {
		c.Update(id, score)
		return
	}
	c.m.Inserts++
	c.heap = append(c.heap, Entry{ID: id, Score: score})
	c.pos[id] = int32(len(c.heap) - 1)
	c.siftUp(len(c.heap) - 1)
}

// Update changes the score of a tracked AA and restores the heap property.
func (c *Cache) Update(id aa.ID, score uint64) {
	c.mustTracked(id)
	c.m.Updates++
	i := int(c.pos[id])
	old := c.heap[i].Score
	c.heap[i].Score = score
	switch {
	case score > old:
		c.siftUp(i)
	case score < old:
		c.siftDown(i)
	}
}

// Best returns the AA with the maximum score without removing it.
func (c *Cache) Best() (Entry, bool) {
	if len(c.heap) == 0 {
		return Entry{}, false
	}
	return c.heap[0], true
}

// Second returns the runner-up: the best AA the allocator would have
// picked had Best been absent. In a binary max-heap that is the higher of
// the root's two children. The provenance layer records it alongside each
// pick; it equals Best() observed immediately after a PopBest.
func (c *Cache) Second() (Entry, bool) {
	switch len(c.heap) {
	case 0, 1:
		return Entry{}, false
	case 2:
		return c.heap[1], true
	}
	if higher(c.heap[2], c.heap[1]) {
		return c.heap[2], true
	}
	return c.heap[1], true
}

// PopBest removes and returns the maximum-score AA. The write allocator
// pops the AA it is about to fill and re-inserts it (with its reduced
// score) at the CP boundary.
func (c *Cache) PopBest() (Entry, bool) {
	if len(c.heap) == 0 {
		return Entry{}, false
	}
	top := c.heap[0]
	c.m.Pops++
	c.remove(0)
	return top, true
}

// Remove drops AA id from the heap (e.g. when an AA leaves the file system
// after a shrink). It panics if untracked.
func (c *Cache) Remove(id aa.ID) {
	c.mustTracked(id)
	c.m.Removes++
	c.remove(int(c.pos[id]))
}

func (c *Cache) remove(i int) {
	last := len(c.heap) - 1
	c.pos[c.heap[i].ID] = -1
	if i != last {
		c.heap[i] = c.heap[last]
		c.pos[c.heap[i].ID] = int32(i)
	}
	c.heap = c.heap[:last]
	if i < len(c.heap) {
		c.siftDown(i)
		c.siftUp(i)
	}
}

// GiveBack and IDOf make a Cache the backing structure of a shardq.Queue. A
// staged entry is popped out of the heap, so its score is frozen at stage
// time; a flush re-inserts it at that score. The wafl layer's CP fold skips
// untracked IDs without deleting their pending deltas, which preserves the
// scrub invariant for every held entry (bitmap and delta mutations always
// move together):
//
//	frozenScore == bitmapScore - pendingDelta
func (c *Cache) GiveBack(e Entry) { c.Insert(e.ID, e.Score) }

// IDOf returns the entry's AA.
func (c *Cache) IDOf(e Entry) aa.ID { return e.ID }

// BestWith returns the best entry across the heap and the entries q holds —
// the true best AA while part of the heap is staged into q. The held set is
// bounded by 2×batch×shards, so the scan stays cheap.
func (c *Cache) BestWith(q *shardq.Queue[Entry]) (Entry, bool) {
	best, ok := c.Best()
	q.Each(func(_ int, e Entry) {
		if !ok || higher(e, best) {
			best, ok = e, true
		}
	})
	return best, ok
}

// TopK returns the k highest-scoring entries in descending score order
// without disturbing the heap. This is the export path for the RAID-aware
// TopAA metafile, which persists the 512 best AAs (§3.4).
func (c *Cache) TopK(k int) []Entry {
	if k <= 0 || len(c.heap) == 0 {
		return nil
	}
	return c.AppendTopK(make([]Entry, 0, min(k, len(c.heap))), k)
}

// AppendTopK appends what TopK(k) returns to dst and returns the extended
// slice; with room in dst it allocates nothing, which is how the TopAA store
// exports the heap at every CP.
//
// It ranks packed keys, score<<32 | ^id: while every score fits 32 bits — the
// root holds the largest — a greater key is exactly a higher entry. The heap's
// keys are copied into a scratch slice the cache keeps, a quickselect moves
// the k greatest to its front and a sort orders those k, so the cost is
// O(n + k log k) in straight-line passes over one array. The scratch makes
// AppendTopK a mutation as far as concurrent use is concerned.
func (c *Cache) AppendTopK(dst []Entry, k int) []Entry {
	k = min(k, len(c.heap))
	if k <= 0 {
		return dst
	}
	if c.heap[0].Score > math.MaxUint32 {
		// Such scores do not pack (and the TopAA encoder rejects them).
		n := len(dst)
		dst = append(dst, c.heap...)
		slices.SortFunc(dst[n:], func(a, b Entry) int {
			if c := cmp.Compare(b.Score, a.Score); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		return dst[:n+k]
	}
	if cap(c.keys) < len(c.heap) {
		c.keys = make([]uint64, 0, cap(c.heap))
	}
	keys := c.keys[:len(c.heap)]
	for i, e := range c.heap {
		keys[i] = e.Score<<32 | uint64(^e.ID)
	}
	selectTop(keys, k)
	top := keys[:k]
	slices.Sort(top)
	for i := k - 1; i >= 0; i-- {
		dst = append(dst, Entry{ID: ^aa.ID(top[i]), Score: top[i] >> 32})
	}
	return dst
}

// selectTop reorders keys, which are distinct, so that keys[:k] holds the k
// greatest in no particular order: Hoare's quickselect, descending, with a
// median-of-three pivot.
func selectTop(keys []uint64, k int) {
	lo, hi := 0, len(keys)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if keys[mid] > keys[lo] {
			keys[mid], keys[lo] = keys[lo], keys[mid]
		}
		if keys[hi] > keys[mid] {
			keys[hi], keys[mid] = keys[mid], keys[hi]
			if keys[mid] > keys[lo] {
				keys[mid], keys[lo] = keys[lo], keys[mid]
			}
		}
		p, i, j := keys[mid], lo, hi
		for i <= j {
			for keys[i] > p {
				i++
			}
			for keys[j] < p {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i, j = i+1, j-1
			}
		}
		// keys[lo..j] ≥ p ≥ keys[i..hi]; a key between them is p itself.
		switch {
		case k-1 <= j:
			hi = j
		case k-1 >= i:
			lo = i
		default:
			return
		}
	}
}

// higher reports whether a has strictly higher priority than b: greater
// score, with ties broken toward the lower AA id. The tie-break matters on
// fresh or freshly cleaned storage, where many AAs share a score: WAFL
// consumes them in block-number order, which keeps device access sequential
// (and, on SMR, in shingle-zone order).
func higher(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

func (c *Cache) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !higher(c.heap[i], c.heap[parent]) {
			return
		}
		c.swap(parent, i)
		i = parent
	}
}

func (c *Cache) siftDown(i int) {
	n := len(c.heap)
	for {
		l, r, largest := 2*i+1, 2*i+2, i
		if l < n && higher(c.heap[l], c.heap[largest]) {
			largest = l
		}
		if r < n && higher(c.heap[r], c.heap[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		c.swap(i, largest)
		i = largest
	}
}

func (c *Cache) swap(i, j int) {
	c.m.Swaps++
	c.heap[i], c.heap[j] = c.heap[j], c.heap[i]
	c.pos[c.heap[i].ID] = int32(i)
	c.pos[c.heap[j].ID] = int32(j)
}

// CheckInvariants verifies the heap property and the position index; it is
// used by tests and returns a descriptive error on violation.
func (c *Cache) CheckInvariants() error {
	for i := 1; i < len(c.heap); i++ {
		parent := (i - 1) / 2
		if higher(c.heap[i], c.heap[parent]) {
			return fmt.Errorf("heap property violated at %d (parent %d): %v outranks %v",
				i, parent, c.heap[i], c.heap[parent])
		}
	}
	seen := 0
	for id, p := range c.pos {
		if p < 0 {
			continue
		}
		seen++
		if int(p) >= len(c.heap) || c.heap[p].ID != aa.ID(id) {
			return fmt.Errorf("position index broken for AA %d", id)
		}
	}
	if seen != len(c.heap) {
		return fmt.Errorf("pos index tracks %d entries, heap has %d", seen, len(c.heap))
	}
	return nil
}
