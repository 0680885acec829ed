// Package hbps implements the paper's novel histogram-based partial sort
// (HBPS) data structure (§3.3.2, Fig. 5), used as the RAID-agnostic
// allocation-area cache for FlexVol volumes and natively redundant storage,
// and elsewhere in WAFL where millions of items must be kept in
// close-to-optimal order within a bounded memory budget.
//
// The structure uses at least two 4KiB pages:
//
//   - The histogram page counts the number of AAs in each score-range bin.
//     For RAID-agnostic AAs the best score is 32k (an empty AA) and bins
//     cover ranges of 1k, so there are 32 bins; the first covers scores in
//     (31k, 32k], the second (30k, 31k], and so on. Each bin also holds an
//     index pointing at the first element of its segment in the list.
//
//   - The list page(s) store the IDs of all the AAs from the best bins,
//     contiguously, segment by segment in bin order. AAs within a bin are
//     deliberately left unsorted — the benefit of sorting within a 3.125%
//     score range was found to be negligible (hence "partial sort") — which
//     is what makes updates cheap: inserting or removing an element moves
//     at most one element per bin.
//
// The write allocator always picks the first AA in the list, which is
// guaranteed to have a score within one bin width (1k/32k = 3.125%) of the
// best tracked score. Counts remain accurate for every bin even when a
// bin's AAs do not qualify for the list; a background replenish scan refills
// the list from the bitmap when the allocator drains it.
//
// The two pages serialize verbatim into the RAID-agnostic TopAA metafile
// (§3.4): see Marshal and Load.
package hbps

import (
	"fmt"
	"slices"

	"waflfs/internal/aa"
)

// Default geometry for RAID-agnostic AA caches.
const (
	// DefaultMaxScore is the best possible RAID-agnostic AA score: 32k free
	// blocks in an empty AA.
	DefaultMaxScore = 32768
	// DefaultBinWidth is the score range covered by one histogram bin.
	DefaultBinWidth = 1024
	// DefaultListCap is the number of AA IDs stored in the single default
	// list page ("this second page stores 1,000 AAs").
	DefaultListCap = 1000
)

// Config parameterizes an HBPS instance.
type Config struct {
	// MaxScore is the best possible item score (inclusive).
	MaxScore uint32
	// BinWidth is the score range per histogram bin; MaxScore must be a
	// multiple of BinWidth.
	BinWidth uint32
	// ListCap is the maximum number of items held in the list component.
	// It must fit in the configured number of list pages when the
	// structure is serialized (1024 IDs per 4KiB page).
	ListCap int
}

// DefaultConfig returns the RAID-agnostic AA cache geometry from the paper.
func DefaultConfig() Config {
	return Config{MaxScore: DefaultMaxScore, BinWidth: DefaultBinWidth, ListCap: DefaultListCap}
}

// bin is one histogram entry, laid out as the histogram page stores it.
type bin struct {
	// count is the number of tracked items whose score falls in the bin. It
	// is accurate for ALL tracked items, listed or not.
	count uint32
	// listed is the number of the bin's items currently in the list.
	listed uint32
	// index is the list offset of the bin's first element, -1 if none.
	index int32
}

// HBPS is the histogram-based partial sort. It is not safe for concurrent
// use; WAFL applies updates in batches at the consistency-point boundary.
type HBPS struct {
	cfg     Config
	numBins int

	// bins is the histogram page, one entry per score range (bin 0 = best).
	bins []bin
	// list holds item IDs, segment by segment in bin order, compactly.
	list []aa.ID
	// pos[id] is the list offset of item id, -1 when it is not listed; ids at
	// or past len(pos) are not listed. Item ids are small dense integers, so
	// the index is an array that grows to the highest id ever listed. This
	// in-memory acceleration is rebuilt on load and does not count against
	// the two-page budget.
	pos []int32
	// placed is Replenish's record of the enumeration, kept between calls.
	placed []placedItem

	total uint64 // tracked items across all bins

	m Metrics
}

// Metrics counts the structural work the HBPS has done since construction.
// BinMigrations is the number of Update calls that moved an item between
// histogram bins — the rebalance cost the paper's batched-update design
// bounds to one moved element per bin; Evictions counts list evictions in
// favor of a better-binned item. The observability layer exposes these per
// FlexVol.
type Metrics struct {
	Tracks        uint64
	Untracks      uint64
	Updates       uint64
	BinMigrations uint64
	Pops          uint64
	Evictions     uint64
	Replenishes   uint64
}

// Metrics returns the instance's operation counters.
func (h *HBPS) Metrics() Metrics { return h.m }

// New creates an empty HBPS.
func New(cfg Config) *HBPS {
	if cfg.MaxScore == 0 || cfg.BinWidth == 0 || cfg.MaxScore%cfg.BinWidth != 0 {
		panic(fmt.Sprintf("hbps: invalid geometry max=%d width=%d", cfg.MaxScore, cfg.BinWidth))
	}
	if cfg.ListCap <= 0 {
		panic("hbps: non-positive list capacity")
	}
	nb := int(cfg.MaxScore / cfg.BinWidth)
	h := &HBPS{
		cfg:     cfg,
		numBins: nb,
		bins:    make([]bin, nb),
		list:    make([]aa.ID, 0, cfg.ListCap),
	}
	for b := range h.bins {
		h.bins[b].index = -1
	}
	return h
}

// Config returns the instance geometry.
func (h *HBPS) Config() Config { return h.cfg }

// NumBins returns the number of histogram bins.
func (h *HBPS) NumBins() int { return h.numBins }

// Bin returns the bin index for a score: bin 0 is the best range
// (MaxScore-BinWidth, MaxScore]; the worst bin additionally includes score 0.
func (h *HBPS) Bin(score uint32) int {
	if score > h.cfg.MaxScore {
		panic(fmt.Sprintf("hbps: score %d exceeds max %d", score, h.cfg.MaxScore))
	}
	b := int((h.cfg.MaxScore - score) / h.cfg.BinWidth)
	if b == h.numBins { // score == 0
		b = h.numBins - 1
	}
	return b
}

// BinFloor returns the smallest score that maps into bin b (0 for the worst
// bin).
func (h *HBPS) BinFloor(b int) uint32 {
	if b == h.numBins-1 {
		return 0
	}
	return h.cfg.MaxScore - uint32(b+1)*h.cfg.BinWidth + 1
}

// Total returns the number of tracked items.
func (h *HBPS) Total() uint64 { return h.total }

// ListLen returns the number of items currently in the list component.
func (h *HBPS) ListLen() int { return len(h.list) }

// BinCount returns the histogram count of bin b.
func (h *HBPS) BinCount(b int) uint32 { return h.bins[b].count }

// BinListed returns how many of bin b's items are in the list.
func (h *HBPS) BinListed(b int) uint32 { return h.bins[b].listed }

// BinSnapshot returns a copy of the histogram page: every bin's tracked-item
// count in bin order (bin 0 = best). This is the cheap scan hook the
// fragscan analyzer uses to contrast the cache's coarse score view with the
// bitmap-truth distribution.
func (h *HBPS) BinSnapshot() []uint32 {
	counts := make([]uint32, h.numBins)
	for b := range counts {
		counts[b] = h.bins[b].count
	}
	return counts
}

// EachListed visits every listed item with the bin it is filed under, in
// list order (best bins first). The bin comes from the segment structure,
// not the item's score, so a scrub can cross-check the metafile's own
// claim against bitmap ground truth.
func (h *HBPS) EachListed(yield func(id aa.ID, bin int)) {
	for b := 0; b < h.numBins; b++ {
		if h.bins[b].listed == 0 {
			continue
		}
		first := h.bins[b].index
		for i := int32(0); i < int32(h.bins[b].listed); i++ {
			yield(h.list[first+i], b)
		}
	}
}

// Listed reports whether item id is currently in the list.
func (h *HBPS) Listed(id aa.ID) bool {
	return int(id) < len(h.pos) && h.pos[id] >= 0
}

// growPos extends the position index to cover n ids, marking the new ones
// unlisted. It takes whatever capacity append's growth policy hands out, so
// listing ids one past the end at a time costs amortised O(1).
func (h *HBPS) growPos(n int) {
	old := len(h.pos)
	h.pos = slices.Grow(h.pos, n-old)
	h.pos = h.pos[:cap(h.pos)]
	for i := old; i < len(h.pos); i++ {
		h.pos[i] = -1
	}
}

// Track starts tracking a new item with the given score, inserting it into
// the list if it qualifies. The caller must not Track an id twice without an
// intervening Untrack.
func (h *HBPS) Track(id aa.ID, score uint32) {
	h.m.Tracks++
	b := h.Bin(score)
	h.bins[b].count++
	h.total++
	h.tryList(id, b)
}

// Untrack removes an item entirely; score must be the last score the
// structure was told about (HBPS stores no per-item scores, by design).
func (h *HBPS) Untrack(id aa.ID, score uint32) {
	h.m.Untracks++
	b := h.Bin(score)
	if h.bins[b].count == 0 {
		panic(fmt.Sprintf("hbps: untrack underflow in bin %d", b))
	}
	h.bins[b].count--
	h.total--
	if h.Listed(id) {
		h.removeListed(id)
	}
}

// Update moves an item from oldScore to newScore. Updates are batched by
// the caller at the CP boundary; each call is O(bins). An item whose score
// rises into one of the top ranges is inserted into the list (§3.3.2).
func (h *HBPS) Update(id aa.ID, oldScore, newScore uint32) {
	bo, bn := h.Bin(oldScore), h.Bin(newScore)
	h.m.Updates++
	if bo != bn {
		h.m.BinMigrations++
		if h.bins[bo].count == 0 {
			panic(fmt.Sprintf("hbps: update underflow in bin %d", bo))
		}
		h.bins[bo].count--
		h.bins[bn].count++
	}
	if h.Listed(id) {
		if bo == bn {
			return
		}
		h.removeListed(id)
		h.tryList(id, bn)
		return
	}
	if bo != bn {
		h.tryList(id, bn)
	}
}

// PeekBest returns the first AA in the list — an item from the highest
// populated range present in the list — without removing it.
func (h *HBPS) PeekBest() (aa.ID, bool) {
	if len(h.list) == 0 {
		return 0, false
	}
	return h.list[0], true
}

// PeekBestBin returns the first listed AA together with its histogram bin,
// without removing it — the provenance layer's runner-up probe after a pop
// (BinFloor of the bin is a lower bound on the runner-up's score).
func (h *HBPS) PeekBestBin() (aa.ID, int, bool) {
	if len(h.list) == 0 {
		return 0, 0, false
	}
	return h.list[0], h.binOfListPos(0), true
}

// BestTrackedBin returns the lowest-index (best-score) bin with any tracked
// items, listed or not, or -1 when nothing is tracked. The pick-quality
// watchdog checks popped scores against this near-best bound.
func (h *HBPS) BestTrackedBin() int {
	for b := 0; b < h.numBins; b++ {
		if h.bins[b].count > 0 {
			return b
		}
	}
	return -1
}

// ListedAt returns the AA at list offset p (0 ≤ p < ListLen) and its
// histogram bin — the rotating-sample accessor the online watchdogs use to
// spot-check listed placement against bitmap-derived scores.
func (h *HBPS) ListedAt(p int) (aa.ID, int) {
	return h.list[p], h.binOfListPos(int32(p))
}

// PopBest removes and returns the first AA in the list. The item remains
// tracked in the histogram; the caller reports its consumption through
// Update (or Untrack) later, as WAFL does at the CP boundary.
func (h *HBPS) PopBest() (aa.ID, bool) {
	if len(h.list) == 0 {
		return 0, false
	}
	id := h.list[0]
	h.m.Pops++
	h.removeListed(id)
	return id, true
}

// GiveBack and IDOf make an HBPS the backing structure of a shardq.Queue.
// PopBest leaves the item histogram-tracked, exactly like a direct pick, so
// a staged ID needs nothing to be given back: a flush leaves it
// tracked-but-unlisted — the state a consumed pop leaves — and the next
// replenish or bin migration re-lists it.
func (h *HBPS) GiveBack(aa.ID) {}

// IDOf returns id: the list's entries are AA IDs.
func (h *HBPS) IDOf(id aa.ID) aa.ID { return id }

// worstListedBin returns the highest-index bin with a list segment, or -1.
func (h *HBPS) worstListedBin() int {
	for b := h.numBins - 1; b >= 0; b-- {
		if h.bins[b].listed > 0 {
			return b
		}
	}
	return -1
}

// tryList inserts id (whose score falls in bin b) into the list if it
// qualifies: there is spare capacity, or b is strictly better than the worst
// listed bin (in which case the last element is evicted).
func (h *HBPS) tryList(id aa.ID, b int) bool {
	if len(h.list) >= h.cfg.ListCap {
		w := h.worstListedBin()
		if w < 0 || b >= w {
			return false
		}
		h.evictLast(w)
	}
	// Open a slot at the end of segment b by moving one element per listed
	// bin after b: each bin's first element becomes its last, shifting the
	// vacancy left ("only one AA needs to be moved down from each bin").
	h.list = append(h.list, 0)
	for c := h.numBins - 1; c > b; c-- {
		if h.bins[c].listed == 0 {
			continue
		}
		first := h.bins[c].index
		dest := first + int32(h.bins[c].listed)
		moved := h.list[first]
		h.list[dest] = moved
		h.pos[moved] = dest
		h.bins[c].index = first + 1
	}
	// The vacancy now sits at the end of segment b: the prefix sum of
	// listed counts through b.
	var slot int32
	for c := 0; c <= b; c++ {
		slot += int32(h.bins[c].listed)
	}
	h.list[slot] = id
	if int(id) >= len(h.pos) {
		h.growPos(int(id) + 1)
	}
	h.pos[id] = slot
	if h.bins[b].listed == 0 {
		h.bins[b].index = slot
	}
	h.bins[b].listed++
	return true
}

// evictLast drops the final list element, which belongs to worst listed bin w.
func (h *HBPS) evictLast(w int) {
	h.m.Evictions++
	last := len(h.list) - 1
	h.pos[h.list[last]] = -1
	h.list = h.list[:last]
	h.bins[w].listed--
	if h.bins[w].listed == 0 {
		h.bins[w].index = -1
	}
}

// binOfListPos finds the bin whose segment contains list offset p.
func (h *HBPS) binOfListPos(p int32) int {
	for b := 0; b < h.numBins; b++ {
		if h.bins[b].listed == 0 {
			continue
		}
		if p >= h.bins[b].index && p < h.bins[b].index+int32(h.bins[b].listed) {
			return b
		}
	}
	panic(fmt.Sprintf("hbps: list position %d not in any segment", p))
}

// removeListed removes id from the list, closing the gap by moving one
// element per bin.
func (h *HBPS) removeListed(id aa.ID) {
	if !h.Listed(id) {
		panic(fmt.Sprintf("hbps: item %d not listed", id))
	}
	p := h.pos[id]
	b := h.binOfListPos(p)
	// Replace p with the last element of its own segment.
	segLast := h.bins[b].index + int32(h.bins[b].listed) - 1
	if p != segLast {
		moved := h.list[segLast]
		h.list[p] = moved
		h.pos[moved] = p
	}
	h.bins[b].listed--
	if h.bins[b].listed == 0 {
		h.bins[b].index = -1
	}
	// The gap is at segLast; slide one element up from each later segment.
	gap := segLast
	for c := b + 1; c < h.numBins; c++ {
		if h.bins[c].listed == 0 {
			continue
		}
		last := h.bins[c].index + int32(h.bins[c].listed) - 1
		moved := h.list[last]
		h.list[gap] = moved
		h.pos[moved] = gap
		h.bins[c].index--
		gap = last
	}
	h.list = h.list[:len(h.list)-1]
	h.pos[id] = -1
}

// NeedsReplenish reports whether the list has run dry while the histogram
// still tracks items — the rare case where the allocator consumes AAs
// faster than frees insert them, requiring a background bitmap walk
// (§3.3.2).
func (h *HBPS) NeedsReplenish() bool {
	return len(h.list) == 0 && h.total > 0
}

// placedItem is one item of a Replenish enumeration: its id and its bin.
type placedItem struct {
	id  aa.ID
	bin int32
}

// Replenish rebuilds the list (and recomputes the histogram) from an
// authoritative enumeration of every tracked item, as the background scan
// of the bitmap metafiles does. The iterator must yield each tracked item
// exactly once.
//
// The list comes out bins in order, items in yield order within a bin, the
// first ListCap kept: pop order breaks score ties by list position, so that
// order is behaviour. It is a counting sort — the enumeration is recorded
// while the histogram is counted, the counts fix where every segment starts,
// and one pass over the record drops each item into its segment's next slot.
func (h *HBPS) Replenish(items func(yield func(id aa.ID, score uint32))) {
	h.m.Replenishes++
	for _, id := range h.list {
		h.pos[id] = -1
	}
	clear(h.bins)
	// The enumeration is of the items already tracked, so their number is
	// the size the record needs.
	h.placed = slices.Grow(h.placed[:0], int(h.total))
	h.total = 0
	items(func(id aa.ID, score uint32) {
		b := h.Bin(score)
		h.bins[b].count++
		h.total++
		h.placed = append(h.placed, placedItem{id, int32(b)})
	})

	// Segments start at the running sum of the counts for as long as that
	// stays inside the list, so only the last one can be cut short.
	end := 0
	for b := range h.bins {
		h.bins[b].index = -1
		if n := h.bins[b].count; n > 0 && end < h.cfg.ListCap {
			h.bins[b].index = int32(end)
			end += int(n)
		}
	}
	h.list = h.list[:min(end, h.cfg.ListCap)]
	for _, it := range h.placed {
		bin := &h.bins[it.bin]
		if bin.index < 0 {
			continue
		}
		// listed counts the bin's items placed so far; a slot past the list
		// is the cut-short segment's overflow.
		p := bin.index + int32(bin.listed)
		if int(p) >= len(h.list) {
			continue
		}
		h.list[p] = it.id
		if int(it.id) >= len(h.pos) {
			h.growPos(int(it.id) + 1)
		}
		h.pos[it.id] = p
		bin.listed++
	}
}

// CheckInvariants verifies internal consistency; tests call it after every
// mutation sequence.
func (h *HBPS) CheckInvariants() error {
	var sumListed, sumCounts uint64
	running := int32(0)
	for b := 0; b < h.numBins; b++ {
		sumCounts += uint64(h.bins[b].count)
		sumListed += uint64(h.bins[b].listed)
		if h.bins[b].listed > h.bins[b].count {
			return fmt.Errorf("bin %d: listed %d > count %d", b, h.bins[b].listed, h.bins[b].count)
		}
		if h.bins[b].listed == 0 {
			if h.bins[b].index != -1 {
				return fmt.Errorf("bin %d: empty but index %d", b, h.bins[b].index)
			}
			continue
		}
		if h.bins[b].index != running {
			return fmt.Errorf("bin %d: index %d, want %d (segments not compact)", b, h.bins[b].index, running)
		}
		running += int32(h.bins[b].listed)
	}
	if sumCounts != h.total {
		return fmt.Errorf("counts sum %d != total %d", sumCounts, h.total)
	}
	if int(sumListed) != len(h.list) {
		return fmt.Errorf("listed sum %d != list len %d", sumListed, len(h.list))
	}
	if len(h.list) > h.cfg.ListCap {
		return fmt.Errorf("list len %d exceeds cap %d", len(h.list), h.cfg.ListCap)
	}
	indexed := 0
	for _, p := range h.pos {
		if p >= 0 {
			indexed++
		}
	}
	if indexed != len(h.list) {
		return fmt.Errorf("position index holds %d items, list %d", indexed, len(h.list))
	}
	for i, id := range h.list {
		if !h.Listed(id) || h.pos[id] != int32(i) {
			return fmt.Errorf("item %d at list offset %d is not indexed there", id, i)
		}
	}
	return nil
}
