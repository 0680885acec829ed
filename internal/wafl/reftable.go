package wafl

import (
	"fmt"
	"math"

	"waflfs/internal/block"
)

// The two homes of a written pair's count (snapshot.go says which pair has
// which): LUN.shared, a bit-sliced counter per LBA, at the end of this file,
// and the refTable of the pairs only snapshots hold. The table is keyed by
// virtual VBN — a small dense integer, so it is a paged array rather than a
// hash map: a directory with one slot per refPageSize virtual VBNs, pointing
// at counter pages that exist only while they hold a live count. A volume
// that never had a snapshot never allocates a page.
//
// Page size. A volume's virtual space is far larger than its data (thin
// provisioning: the mount_cycle benchmark's big volume spans 2048 AAs for a
// LUN of twelve), so a flat array is out, and so is a page per 32k-block AA:
// a few thousand snapshot-only blocks scattered over the AAs would pin a
// whole page per AA for a handful of counters each. The allocator fills an
// AA's free VBNs in ascending order, so blocks written together sit together
// and leave the active image together; 4096 counters per page follow that
// locality closely enough that pages empty and recycle as snapshots go.
//
// Counter width. Either count is bounded by the LUN's snapshots, which
// CreateSnapshot caps at MaxUint16 (ErrTooManySnapshots): 16 bits per table
// entry and at most 16 planes of the sliced counter; the limit is checked,
// never wrapped.
const (
	refPageShift = 12
	refPageSize  = 1 << refPageShift
	refPageMask  = refPageSize - 1
)

// refPage holds the counts of refPageSize consecutive virtual VBNs; zero
// means unreferenced.
type refPage [refPageSize]uint16

type refTable struct {
	dir []*refPage
	// live[i] counts the non-zero counters of dir[i]. A page whose live
	// count returns to zero is all zeroes again: it goes on the free list
	// as is and is handed out again without clearing — fixed-size
	// allocate/free from an array-backed pool in constant time.
	live []uint16
	free []*refPage
	n    int
}

// newRefTable returns an empty table for a virtual space of the given size.
func newRefTable(blocks uint64) *refTable {
	pages := (blocks + refPageSize - 1) >> refPageShift
	return &refTable{dir: make([]*refPage, pages), live: make([]uint16, pages)}
}

// Len returns the number of referenced virtual VBNs.
func (t *refTable) Len() int { return t.n }

// get returns v's count (0 when unreferenced).
func (t *refTable) get(v block.VBN) uint16 {
	if p := t.dir[v>>refPageShift]; p != nil {
		return p[v&refPageMask]
	}
	return 0
}

// set enters v, which must be absent, with n > 0 holders.
func (t *refTable) set(v block.VBN, n uint16) {
	if old := t.get(v); old != 0 || n == 0 {
		panic(fmt.Sprintf("wafl: set of virtual %v to %d, table has %d", v, n, old))
	}
	i := v >> refPageShift
	p := t.dir[i]
	if p == nil {
		if k := len(t.free); k > 0 {
			p, t.free = t.free[k-1], t.free[:k-1]
		} else {
			p = new(refPage)
		}
		t.dir[i] = p
	}
	p[v&refPageMask] = n
	t.live[i]++
	t.n++
}

// remove takes v out of the table and returns the count it had; the page
// that held the last live count of its range is released for reuse.
func (t *refTable) remove(v block.VBN) uint16 {
	i := v >> refPageShift
	p := t.dir[i]
	if p == nil || p[v&refPageMask] == 0 {
		panic(fmt.Sprintf("wafl: unref of unknown virtual %v", v))
	}
	n := p[v&refPageMask]
	p[v&refPageMask] = 0
	t.n--
	if t.live[i]--; t.live[i] == 0 {
		t.dir[i] = nil
		t.free = append(t.free, p)
	}
	return n
}

// unref drops one holder of v and reports whether it was the last.
func (t *refTable) unref(v block.VBN) (last bool) {
	if p := t.dir[v>>refPageShift]; p != nil && p[v&refPageMask] > 1 {
		p[v&refPageMask]--
		return false
	}
	t.remove(v)
	return true
}

// sliced is LUN.shared: one count per LBA, kept in bit planes — bit k of LBA
// i's count is bit i%64 of planes[k][i/64] — so that a snapshot adds one to
// all 64 LBAs of a word with a carry rippling up the planes, not with 64
// counter updates. Planes appear as some count needs them; with none, every
// count is zero and take touches no memory.
type sliced struct {
	words  int // per plane: one bit per LBA of the LUN
	planes [][]uint64
}

// get returns LBA i's count.
func (c *sliced) get(i uint64) (n uint16) {
	for k, p := range c.planes {
		n |= uint16(p[i/64]>>(i%64)&1) << k
	}
	return n
}

// take returns LBA i's count and zeroes it.
func (c *sliced) take(i uint64) (n uint16) {
	for k, p := range c.planes {
		n |= uint16(p[i/64]>>(i%64)&1) << k
		p[i/64] &^= 1 << (i % 64)
	}
	return n
}

// put gives LBA i, whose count must be zero, the count n.
func (c *sliced) put(i uint64, n uint16) {
	for k := 0; n>>k != 0; k++ {
		if k == len(c.planes) {
			c.planes = append(c.planes, make([]uint64, c.words))
		}
		c.planes[k][i/64] |= uint64(n>>k&1) << (i % 64)
	}
}

// add increments the count of every LBA of word w whose bit is set in mask.
func (c *sliced) add(w int, mask uint64) {
	for k := 0; mask != 0; k++ {
		if k == len(c.planes) {
			if k == 16 {
				panic(fmt.Sprintf("wafl: a shared count of LBAs %d.. exceeds %d", w*64, math.MaxUint16))
			}
			c.planes = append(c.planes, make([]uint64, c.words))
		}
		p := c.planes[k]
		p[w], mask = p[w]^mask, p[w]&mask
	}
}

// sub decrements them.
func (c *sliced) sub(w int, mask uint64) {
	for k := 0; mask != 0; k++ {
		if k == len(c.planes) {
			panic(fmt.Sprintf("wafl: a shared count of LBAs %d.. below zero", w*64))
		}
		p := c.planes[k]
		p[w], mask = p[w]^mask, ^p[w]&mask
	}
}
