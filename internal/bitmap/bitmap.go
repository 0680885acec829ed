// Package bitmap implements WAFL-style bitmap metafiles.
//
// WAFL stores free-space information in internal files called bitmap
// metafiles, which are flat and indexed by VBN: the i-th bit tracks the
// state of the i-th block of the file system (§2.5 of the paper). One 4KiB
// metafile block holds 32k bits.
//
// Beyond the bit operations themselves, this package provides the two
// facilities the paper's algorithms are built on:
//
//   - popcount range scans, used to compute AA scores ("the number of free
//     blocks in the AA, computed by consulting bitmap metafiles", §3.3); and
//   - dirty metafile-page accounting, used to measure how many metafile
//     blocks a consistency point must write back. Minimizing I/O to metafile
//     blocks is the explicit goal of RAID-agnostic allocation (§2.5), so the
//     experiments need this number.
//
// The words live in 4KiB pages, one per metafile block, and a page exists
// only once something is written to it: every untouched page is one shared,
// read-only zero page, so a thin volume that declares far more space than it
// writes holds bitmap storage for what it wrote (the memory bound §3.3.2
// sets for HBPS, applied to the bitmap). Pages are never released.
//
// A Bitmap is not safe for concurrent mutation; WAFL serializes bitmap
// updates within a consistency point, and this library follows that model.
// Distinct bitmaps may be mutated concurrently: nothing writes the shared
// zero page.
package bitmap

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"waflfs/internal/block"
)

const (
	wordBits = 64
	// wordsPerPage is the number of 64-bit words per 4KiB metafile block.
	wordsPerPage = block.BitsPerBitmapBlock / wordBits
)

// page is the words of one 4KiB metafile block.
type page = [wordsPerPage]uint64

// zeroPage stands for every page no write has reached, in every bitmap. It is
// never written, not even with zeroes.
var zeroPage page

// Bitmap tracks the allocated/free state of every block in one flat VBN
// space. Bit value 1 means allocated (in use); 0 means free, matching the
// convention that a freshly created file system is all zeroes.
type Bitmap struct {
	nbits uint64
	// pages holds the words, a metafile page each: &zeroPage until the first
	// write to the page gives it storage of its own. held counts those.
	pages []*page
	held  uint64
	used  uint64

	// pageUsed counts the allocated blocks of each metafile page, maintained
	// with every bit change, so range counts sum whole pages instead of
	// popcounting their 512 words.
	pageUsed []uint32

	// dirty marks metafile pages (4KiB blocks of the bitmap itself) whose
	// contents changed since the last Flush, one bit per page; ndirty counts
	// the set bits. The page index of VBN v is v / 32768.
	dirty  []uint64
	ndirty int

	// Counters for the experiment harnesses.
	totalDirtied uint64 // pages ever marked dirty (including re-dirtying after flush)
	totalFlushed uint64 // pages written back by Flush
	// totalReads counts metafile page reads charged by scans. It is atomic
	// because parallel mount-walk shards charge the shared aggregate bitmap
	// concurrently; all other state keeps the single-mutator model.
	totalReads atomic.Uint64
}

// New creates a bitmap covering n blocks, all free.
func New(n uint64) *Bitmap {
	b := &Bitmap{nbits: n}
	b.pages = grownPages(nil, b.Pages())
	b.pageUsed = make([]uint32, b.Pages())
	b.dirty = make([]uint64, (b.Pages()+wordBits-1)/wordBits)
	return b
}

// grownPages returns ps extended to n pages with untouched ones.
func grownPages(ps []*page, n uint64) []*page {
	ps = slices.Grow(ps, int(n)-len(ps))
	for uint64(len(ps)) < n {
		ps = append(ps, &zeroPage)
	}
	return ps
}

// own returns page p for writing, giving it storage of its own on the first
// write.
func (b *Bitmap) own(p uint64) *page {
	if b.pages[p] == &zeroPage {
		b.pages[p] = new(page)
		b.held++
	}
	return b.pages[p]
}

// word returns bitmap word w.
func (b *Bitmap) word(w uint64) uint64 { return b.pages[w/wordsPerPage][w%wordsPerPage] }

// Size returns the number of blocks tracked.
func (b *Bitmap) Size() uint64 { return b.nbits }

// Used returns the number of allocated blocks.
func (b *Bitmap) Used() uint64 { return b.used }

// Free returns the number of free blocks.
func (b *Bitmap) Free() uint64 { return b.nbits - b.used }

// Pages returns the number of 4KiB metafile blocks backing the bitmap.
func (b *Bitmap) Pages() uint64 {
	return (b.nbits + block.BitsPerBitmapBlock - 1) / block.BitsPerBitmapBlock
}

func (b *Bitmap) check(v block.VBN) {
	if uint64(v) >= b.nbits {
		panic(fmt.Sprintf("bitmap: VBN %d out of range [0,%d)", uint64(v), b.nbits))
	}
}

// Test reports whether block v is allocated.
func (b *Bitmap) Test(v block.VBN) bool {
	b.check(v)
	return b.word(uint64(v)/wordBits)&(1<<(uint64(v)%wordBits)) != 0
}

func (b *Bitmap) markDirty(page uint64) {
	w, m := page/wordBits, uint64(1)<<(page%wordBits)
	if b.dirty[w]&m == 0 {
		b.dirty[w] |= m
		b.ndirty++
		b.totalDirtied++
	}
}

// Set marks block v allocated. It returns true if the bit changed, false if
// the block was already allocated. The containing metafile page is marked
// dirty only when the bit actually changes.
func (b *Bitmap) Set(v block.VBN) bool {
	b.check(v)
	w, m := uint64(v)/wordBits, uint64(1)<<(uint64(v)%wordBits)
	if b.word(w)&m != 0 {
		return false
	}
	b.setWord(w/wordsPerPage, w%wordsPerPage, m)
	return true
}

// Clear marks block v free. It returns true if the bit changed.
func (b *Bitmap) Clear(v block.VBN) bool {
	b.check(v)
	p, i, m := uint64(v)/block.BitsPerBitmapBlock, uint64(v)/wordBits%wordsPerPage, uint64(1)<<(uint64(v)%wordBits)
	pg := b.pages[p]
	if pg[i]&m == 0 {
		return false // so an untouched page is only read
	}
	pg[i] &^= m
	b.used--
	b.pageUsed[p]--
	b.markDirty(p)
	return true
}

// setWord marks the free blocks of mask m, which is not zero, in word i of
// page p allocated: one OR and one count update for the whole word.
func (b *Bitmap) setWord(p, i, m uint64) {
	b.own(p)[i] |= m
	n := uint64(bits.OnesCount64(m))
	b.used += n
	b.pageUsed[p] += uint32(n)
	b.markDirty(p)
}

// SetMask marks block start+i allocated for every bit i of mask, the inverse
// of FreeWord: one OR per bitmap word the mask covers, two when start is not
// word-aligned. It panics, changing nothing, if any of those blocks is already
// allocated or lies past the bitmap's end.
func (b *Bitmap) SetMask(start block.VBN, mask uint64) {
	if mask == 0 {
		return
	}
	pos := uint64(start)
	b.check(block.VBN(pos + uint64(wordBits-1-bits.LeadingZeros64(mask))))
	w, off := pos/wordBits, pos%wordBits
	lo, hi := mask<<off, uint64(0)
	if off != 0 {
		hi = mask >> (wordBits - off)
	}
	if b.word(w)&lo != 0 || hi != 0 && b.word(w+1)&hi != 0 {
		panic(fmt.Sprintf("bitmap: SetMask(%d, %#x) over allocated blocks", pos, mask))
	}
	if lo != 0 {
		b.setWord(w/wordsPerPage, w%wordsPerPage, lo)
	}
	if hi != 0 {
		b.setWord((w+1)/wordsPerPage, (w+1)%wordsPerPage, hi)
	}
}

// TakeFree allocates up to want free blocks of [from, r.End) — r clamped to
// the bitmap, from raised to r.Start — in ascending order and appends them to
// dst. It is NextFree and Set in a loop, a word at a time: one masked OR and
// one count update per word it takes from. next is one past the last block
// taken when all want were (from when want ≤ 0), and r.End when fewer were,
// the range then being out of free blocks.
func (b *Bitmap) TakeFree(dst []block.VBN, from block.VBN, r block.Range, want int) (out []block.VBN, next block.VBN) {
	if want <= 0 {
		return dst, from
	}
	c := b.clampRange(r)
	start, end := uint64(max(from, c.Start)), uint64(c.End)
	if start >= end {
		return dst, r.End
	}
	for w, lastW := start/wordBits, (end-1)/wordBits; w <= lastW; {
		p, i := w/wordsPerPage, w%wordsPerPage
		// pg is the page as it was: a take changes only the word it took
		// from, also when it gives an untouched page storage of its own.
		pg := b.pages[p]
		for k := min(wordsPerPage, i+lastW+1-w); i < k; i, w = i+1, w+1 {
			f := ^pg[i] & wordMask(w*wordBits, start, end)
			if f == 0 {
				continue
			}
			n := bits.OnesCount64(f)
			if n >= want {
				rest := f // the free blocks past the want-th
				for range want {
					rest &= rest - 1
				}
				f &^= rest
				n = want
			}
			b.setWord(p, i, f)
			base, last := w*wordBits, uint64(0)
			for ; f != 0; f &= f - 1 {
				last = base + uint64(bits.TrailingZeros64(f))
				dst = append(dst, block.VBN(last))
			}
			if want -= n; want == 0 {
				return dst, block.VBN(last + 1)
			}
		}
	}
	return dst, r.End
}

// SetRange marks every block in r allocated and returns the number of bits
// that changed. It works a word at a time — the bulk path used when seeding
// aged file systems and applying large free batches.
func (b *Bitmap) SetRange(r block.Range) uint64 {
	return b.bulk(r, true)
}

// ClearRange marks every block in r free and returns the number of bits that
// changed.
func (b *Bitmap) ClearRange(r block.Range) uint64 {
	return b.bulk(r, false)
}

// bulk applies one bit value across r word-at-a-time, maintaining the used
// counts and dirty-page set from the per-word change masks. A word it
// changes nothing in is not stored to, so a clear over an untouched page
// leaves it untouched.
func (b *Bitmap) bulk(r block.Range, set bool) uint64 {
	r = b.clampRange(r)
	if r.Len() == 0 {
		return 0
	}
	start, end := uint64(r.Start), uint64(r.End)
	var changed uint64
	for w, last := start/wordBits, (end-1)/wordBits; w <= last; {
		p, i := w/wordsPerPage, w%wordsPerPage
		pg := b.pages[p]
		for k := min(wordsPerPage, i+last+1-w); i < k; i, w = i+1, w+1 {
			mask := wordMask(w*wordBits, start, end)
			var n uint64
			if set {
				if n = uint64(bits.OnesCount64(mask &^ pg[i])); n == 0 { // bits that flip 0->1
					continue
				}
				pg = b.own(p)
				pg[i] |= mask
				b.used += n
				b.pageUsed[p] += uint32(n)
			} else {
				if n = uint64(bits.OnesCount64(mask & pg[i])); n == 0 { // bits that flip 1->0
					continue
				}
				pg[i] &^= mask
				b.used -= n
				b.pageUsed[p] -= uint32(n)
			}
			changed += n
			b.markDirty(p)
		}
	}
	return changed
}

// clampRange truncates r to the bitmap's extent.
func (b *Bitmap) clampRange(r block.Range) block.Range {
	if uint64(r.End) > b.nbits {
		r.End = block.VBN(b.nbits)
	}
	if r.Start > r.End {
		r.Start = r.End
	}
	return r
}

// CountUsed returns the number of allocated blocks in r. This is the
// primitive behind AA score computation: whole metafile pages inside r are
// summed from their per-page counts, only the ragged ends are popcounted a
// word at a time, and a range covering the whole bitmap costs nothing. (The
// modeled cost of reading those pages is ChargeScan's, not this function's.)
func (b *Bitmap) CountUsed(r block.Range) uint64 {
	r = b.clampRange(r)
	if r.Len() == 0 {
		return 0
	}
	start, end := uint64(r.Start), uint64(r.End)
	if start == 0 && end == b.nbits {
		return b.used
	}
	// Whole pages are [first, last); the bitmap's final page counts as whole
	// when r runs to the end, however few bits it holds.
	first := (start + block.BitsPerBitmapBlock - 1) / block.BitsPerBitmapBlock
	last := end / block.BitsPerBitmapBlock
	if end == b.nbits {
		last = b.Pages()
	}
	if first >= last {
		return b.popcount(start, end)
	}
	n := b.popcount(start, first*block.BitsPerBitmapBlock)
	for _, u := range b.pageUsed[first:last] {
		n += uint64(u)
	}
	if tail := last * block.BitsPerBitmapBlock; tail < end {
		n += b.popcount(tail, end)
	}
	return n
}

// popcount counts the allocated blocks in [start, end) a word at a time.
func (b *Bitmap) popcount(start, end uint64) uint64 {
	if start >= end {
		return 0
	}
	firstWord, lastWord := start/wordBits, (end-1)/wordBits
	if firstWord == lastWord {
		mask := maskRange(start%wordBits, (end-1)%wordBits+1)
		return uint64(bits.OnesCount64(b.word(firstWord) & mask))
	}
	n := uint64(bits.OnesCount64(b.word(firstWord) & maskFrom(start%wordBits)))
	n += b.ones(firstWord+1, lastWord)
	n += uint64(bits.OnesCount64(b.word(lastWord) & maskUpto((end-1)%wordBits+1)))
	return n
}

// ones counts the allocated blocks of words [from, to), a page at a time.
func (b *Bitmap) ones(from, to uint64) uint64 {
	n := 0
	for from < to {
		p, i := from/wordsPerPage, from%wordsPerPage
		k := min(wordsPerPage, i+to-from)
		for _, x := range b.pages[p][i:k] {
			n += bits.OnesCount64(x)
		}
		from += k - i
	}
	return uint64(n)
}

// CountFree returns the number of free blocks in r. For an allocation area
// this is exactly the paper's "AA score".
func (b *Bitmap) CountFree(r block.Range) uint64 {
	r = b.clampRange(r)
	return r.Len() - b.CountUsed(r)
}

// CountFreeStrided returns the number of free blocks in the n runs
// [start+k·stride, start+k·stride+run), k < n, each clamped to the bitmap as
// CountFree clamps its range. A RAID-aware AA is such a set — one run of
// stripes on every data device — and scoring it costs a popcount per word:
// when start, run and stride are word-aligned and every run lies inside the
// bitmap the runs are plain word loops, and otherwise each run's ragged ends
// are masked. A run long enough to hold a whole metafile page sums the
// per-page counts as CountFree does.
func (b *Bitmap) CountFreeStrided(start block.VBN, run, stride uint64, n int) uint64 {
	if n <= 0 || run == 0 {
		return 0
	}
	s := uint64(start)
	var free uint64
	switch {
	case run >= block.BitsPerBitmapBlock:
		for k := uint64(0); k < uint64(n); k++ {
			free += b.CountFree(block.R(block.VBN(s+k*stride), block.VBN(s+k*stride+run)))
		}
	case (s|run|stride)%wordBits == 0 && s+uint64(n-1)*stride+run <= b.nbits:
		var used uint64
		words, step := run/wordBits, stride/wordBits
		for k, w := 0, s/wordBits; k < n; k, w = k+1, w+step {
			if i := w % wordsPerPage; i+words <= wordsPerPage {
				for _, x := range b.pages[w/wordsPerPage][i : i+words] {
					used += uint64(bits.OnesCount64(x))
				}
			} else {
				used += b.ones(w, w+words)
			}
		}
		free = uint64(n)*run - used
	default:
		for k := uint64(0); k < uint64(n); k++ {
			r := b.clampRange(block.R(block.VBN(s+k*stride), block.VBN(s+k*stride+run)))
			free += r.Len() - b.popcount(uint64(r.Start), uint64(r.End))
		}
	}
	return free
}

// maskFrom returns a word mask with bits [from, 64) set.
func maskFrom(from uint64) uint64 { return ^uint64(0) << from }

// maskUpto returns a word mask with bits [0, upto) set.
func maskUpto(upto uint64) uint64 {
	if upto >= wordBits {
		return ^uint64(0)
	}
	return (uint64(1) << upto) - 1
}

// maskRange returns a word mask with bits [from, upto) set.
func maskRange(from, upto uint64) uint64 { return maskFrom(from) & maskUpto(upto) }

// wordMask returns a mask of the blocks of [start, end) in the word whose
// first block is lo, which lies below end.
func wordMask(lo, start, end uint64) uint64 {
	m := ^uint64(0)
	if start > lo {
		m = maskFrom(start - lo)
	}
	if end-lo < wordBits {
		m &= maskUpto(end - lo)
	}
	return m
}

// NextFree returns the first free block at or after v within r, or
// (InvalidVBN, false) if none exists. The scan is word-at-a-time.
func (b *Bitmap) NextFree(v block.VBN, r block.Range) (block.VBN, bool) {
	return b.scan(v, r, false)
}

// NextUsed returns the first allocated block at or after v within r.
func (b *Bitmap) NextUsed(v block.VBN, r block.Range) (block.VBN, bool) {
	return b.scan(v, r, true)
}

func (b *Bitmap) scan(v block.VBN, r block.Range, wantSet bool) (block.VBN, bool) {
	r = b.clampRange(r)
	if v < r.Start {
		v = r.Start
	}
	if v >= r.End {
		return block.InvalidVBN, false
	}
	flip := ^uint64(0) // a free block reads as a one
	if wantSet {
		flip = 0
	}
	start, end := uint64(v), uint64(r.End)
	mask := maskFrom(start % wordBits)
	for w, last := start/wordBits, (end-1)/wordBits; w <= last; {
		i := w % wordsPerPage
		for _, x := range b.pages[w/wordsPerPage][i:min(wordsPerPage, i+last+1-w)] {
			if x = (x ^ flip) & mask; x != 0 {
				if found := w*wordBits + uint64(bits.TrailingZeros64(x)); found < end {
					return block.VBN(found), true
				}
				return block.InvalidVBN, false
			}
			mask = ^uint64(0)
			w++
		}
	}
	return block.InvalidVBN, false
}

// ForEachFreeRun calls fn for each maximal run of contiguous free blocks
// within r, in ascending order, without allocating. It walks words: one with
// no free block and one inside a longer run cost a compare each. fn returning
// false stops the walk.
func (b *Bitmap) ForEachFreeRun(r block.Range, fn func(run block.Range) bool) {
	r = b.clampRange(r)
	if r.Len() == 0 {
		return
	}
	start, end := uint64(r.Start), uint64(r.End)
	open, from := false, uint64(0) // a run that began at from reaches this word
	for w, last := start/wordBits, (end-1)/wordBits; w <= last; {
		i := w % wordsPerPage
		for _, x := range b.pages[w/wordsPerPage][i:min(wordsPerPage, i+last+1-w)] {
			base := w * wordBits
			f := ^x & wordMask(base, start, end)
			w++
			if open {
				n := uint64(bits.TrailingZeros64(^f))
				if n == wordBits {
					continue
				}
				if !fn(block.Range{Start: block.VBN(from), End: block.VBN(base + n)}) {
					return
				}
				open, f = false, f&^maskUpto(n)
			}
			for f != 0 {
				s := uint64(bits.TrailingZeros64(f))
				n := uint64(bits.TrailingZeros64(^(f >> s)))
				if s+n == wordBits {
					open, from = true, base+s
					break
				}
				if !fn(block.Range{Start: block.VBN(base + s), End: block.VBN(base + s + n)}) {
					return
				}
				f &^= maskUpto(n) << s
			}
		}
	}
	if open {
		fn(block.Range{Start: block.VBN(from), End: r.End})
	}
}

// RunHist accumulates free-run statistics over one or more ranges. Log2[k]
// counts the maximal free runs whose length l has bits.Len64(l-1) == k, that
// is 2^(k-1) < l ≤ 2^k; the last entry also takes every longer run.
type RunHist struct {
	Runs    uint64 // maximal free runs
	Blocks  uint64 // free blocks, the sum of their lengths
	Longest uint64
	Log2    [18]uint64
}

// add counts one run measured on its own, at a word's end or across words.
func (h *RunHist) add(l uint64) {
	h.Runs++
	h.Blocks += l
	h.Longest = max(h.Longest, l)
	h.Log2[min(bits.Len64(l-1), len(h.Log2)-1)]++
}

// addWord counts the runs of f, none of which touches bit 0 or bit 63,
// without visiting them. With y the blocks that begin 2^k free ones, y&(f>>2^k)
// are those that begin 2^k+1 and y&(y>>2^k) those that begin 2^(k+1); each run
// longer than 2^k leaves one run in the former, and a run starts at every one
// whose lower neighbour is a zero. The longest run is measured only in a word
// whose highest length class could beat the longest so far.
func (h *RunHist) addWord(f uint64) {
	n := uint64(bits.OnesCount64(f &^ (f << 1)))
	h.Runs += n
	h.Blocks += uint64(bits.OnesCount64(f))
	k := 0
	for y := f; k < 6; k++ {
		q := y & (f >> (1 << k))
		longer := uint64(bits.OnesCount64(q &^ (q << 1)))
		if longer == 0 {
			break
		}
		h.Log2[k] += n - longer
		n, y = longer, y&(y>>(1<<k))
	}
	h.Log2[k] += n
	if 1<<k > h.Longest {
		var l uint64
		for ; f != 0; f &= f >> 1 {
			l++
		}
		h.Longest = max(h.Longest, l)
	}
}

// FreeRunHist adds the maximal free runs of r to h, the ones ForEachFreeRun
// would visit, in a few operations per word whatever the fragmentation: only
// the runs at a word's two ends are measured, the rest are counted by length
// class. The fragscan analyzer builds its run-length histograms on it.
func (b *Bitmap) FreeRunHist(r block.Range, h *RunHist) {
	r = b.clampRange(r)
	if r.Len() == 0 {
		return
	}
	start, end := uint64(r.Start), uint64(r.End)
	var open uint64 // length so far of the run that reaches this word
	for w, last := start/wordBits, (end-1)/wordBits; w <= last; {
		i := w % wordsPerPage
		for _, x := range b.pages[w/wordsPerPage][i:min(wordsPerPage, i+last+1-w)] {
			f := ^x & wordMask(w*wordBits, start, end)
			w++
			if f == ^uint64(0) {
				open += wordBits
				continue
			}
			if lead := uint64(bits.TrailingZeros64(^f)); open+lead != 0 {
				h.add(open + lead)
				f &^= maskUpto(lead)
			}
			open = uint64(bits.LeadingZeros64(^f))
			if f &^= maskFrom(wordBits - open); f != 0 {
				h.addWord(f)
			}
		}
	}
	if open != 0 {
		h.add(open)
	}
}

// FreeRuns returns the maximal runs of contiguous free blocks within r, in
// ascending order. Runs of contiguous free space on a device are what permit
// the long write chains of §2.4; the RAID layer uses this to cost writes.
func (b *Bitmap) FreeRuns(r block.Range) []block.Range {
	var runs []block.Range
	b.ForEachFreeRun(r, func(run block.Range) bool {
		runs = append(runs, run)
		return true
	})
	return runs
}

// LongestFreeRun returns the length of the longest contiguous free run in r.
func (b *Bitmap) LongestFreeRun(r block.Range) uint64 {
	var h RunHist
	b.FreeRunHist(r, &h)
	return h.Longest
}

// FreeWord returns an n-bit word (n ≤ 64) whose bit i is set when block
// start+i is free; positions at or beyond the bitmap's end read as
// allocated. One call yields the free state of up to 64 consecutive VBNs,
// which is how stripe-fullness analysis transposes per-device scans without
// per-bit Test calls.
func (b *Bitmap) FreeWord(start block.VBN, n uint) uint64 {
	if n == 0 {
		return 0
	}
	if n > wordBits {
		n = wordBits
	}
	pos := uint64(start)
	if pos >= b.nbits {
		return 0
	}
	off := pos % wordBits
	w := ^b.word(pos/wordBits) >> off
	if next := pos/wordBits + 1; off != 0 && next*wordBits < b.nbits {
		w |= ^b.word(next) << (wordBits - off)
	}
	valid := uint64(n)
	if pos+valid > b.nbits {
		valid = b.nbits - pos
	}
	return w & maskUpto(valid)
}

// DirtyPages returns the number of metafile pages modified since the last
// Flush. This is the per-CP metafile write I/O the paper's RAID-agnostic AA
// selection minimizes (§2.5).
func (b *Bitmap) DirtyPages() int { return b.ndirty }

// DirtyPageList returns the dirty page indices in ascending order.
func (b *Bitmap) DirtyPageList() []uint64 {
	out := make([]uint64, 0, b.ndirty)
	for w, word := range b.dirty {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint64(w)*wordBits+uint64(bits.TrailingZeros64(word)))
		}
	}
	return out
}

// Flush simulates writing all dirty metafile pages back to storage at a CP
// boundary. It returns the number of pages written and resets the dirty set.
func (b *Bitmap) Flush() int {
	n := b.ndirty
	b.totalFlushed += uint64(n)
	if n > 0 {
		clear(b.dirty)
		b.ndirty = 0
	}
	return n
}

// ChargeScan records that a linear walk read the metafile pages covering r.
// Rebuilding AA caches without a TopAA metafile requires such a walk (§3.4);
// the Fig. 10 experiment charges its cost through this counter.
func (b *Bitmap) ChargeScan(r block.Range) uint64 {
	r = b.clampRange(r)
	if r.Len() == 0 {
		return 0
	}
	first := r.Start.BitmapBlock()
	last := (r.End - 1).BitmapBlock()
	n := last - first + 1
	b.totalReads.Add(n)
	return n
}

// Stats is a snapshot of the bitmap's accounting counters.
type Stats struct {
	PagesDirtied uint64 // pages marked dirty over the bitmap's lifetime
	PagesFlushed uint64 // pages written back by Flush
	PageReads    uint64 // pages read by charged scans
	PagesHeld    uint64 // pages with storage of their own: written at least once
}

// Stats returns the lifetime counters.
func (b *Bitmap) Stats() Stats {
	return Stats{PagesDirtied: b.totalDirtied, PagesFlushed: b.totalFlushed, PageReads: b.totalReads.Load(), PagesHeld: b.held}
}

// Grow extends the bitmap to track n blocks (n must not shrink it). The new
// blocks start free; the metafile pages that come into existence are marked
// dirty so the next CP persists them. This is the path behind growing an
// aggregate by adding RAID groups (§4.2).
func (b *Bitmap) Grow(n uint64) {
	if n < b.nbits {
		panic(fmt.Sprintf("bitmap: Grow(%d) would shrink %d-block bitmap", n, b.nbits))
	}
	if n == b.nbits {
		return
	}
	oldPages := b.Pages()
	b.nbits = n
	b.pages = grownPages(b.pages, b.Pages())
	b.pageUsed = grown(b.pageUsed, b.Pages())
	b.dirty = grown(b.dirty, (b.Pages()+wordBits-1)/wordBits)
	for p := oldPages; p < b.Pages(); p++ {
		b.markDirty(p)
	}
}

// grown returns s extended with zeroes to length n.
func grown[T any](s []T, n uint64) []T {
	if uint64(len(s)) >= n {
		return s
	}
	return append(s, make([]T, n-uint64(len(s)))...)
}

// Clone returns a deep copy of the bitmap including dirty state. It exists
// so experiments can snapshot an aged file system and replay different
// policies against identical fragmentation.
// The copy's held pages share one allocation.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{
		nbits:    b.nbits,
		pages:    slices.Clone(b.pages),
		held:     b.held,
		used:     b.used,
		pageUsed: slices.Clone(b.pageUsed),
		dirty:    slices.Clone(b.dirty),
		ndirty:   b.ndirty,
	}
	slab := make([]page, b.held)
	for p, pg := range c.pages {
		if pg != &zeroPage {
			slab[0] = *pg
			c.pages[p], slab = &slab[0], slab[1:]
		}
	}
	return c
}
