package wafl

import (
	"fmt"
	"math"

	"waflfs/internal/block"
)

// The refcount table. Every written pair of a FlexVol carries a count of its
// referents (the active image plus snapshots), keyed by virtual VBN — a small
// dense integer, so the table is a paged array rather than a hash map: a
// directory with one slot per refPageSize virtual VBNs, pointing at counter
// pages that exist only while they hold a live count.
//
// Page size. A volume's virtual space is far larger than its data (thin
// provisioning: the mount_cycle benchmark's big volume spans 2048 AAs for a
// LUN of twelve), so a flat array is out, and so is a page per 32k-block AA:
// a small volume cycling a few thousand live blocks through its AAs would
// pin a whole page per AA for a handful of counters each. The allocator
// fills an AA's free VBNs in ascending order, so blocks written together sit
// together; 4096 counters per page follow that locality closely enough that
// pages empty and recycle as the data they described is overwritten.
//
// Counter width. A count is 1 + the snapshots holding the block, so 16 bits
// are plenty and halve the table against int32; the limit is checked, never
// wrapped.
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

// refNew registers a freshly allocated pair with one reference.
func (t *refTable) refNew(v block.VBN) {
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
	if p[v&refPageMask] != 0 {
		panic(fmt.Sprintf("wafl: virtual %v already referenced", v))
	}
	p[v&refPageMask] = 1
	t.live[i]++
	t.n++
}

// ref adds a reference to an existing pair.
func (t *refTable) ref(v block.VBN) {
	p := t.dir[v>>refPageShift]
	if p == nil || p[v&refPageMask] == 0 {
		panic(fmt.Sprintf("wafl: ref of unknown virtual %v", v))
	}
	if p[v&refPageMask] == math.MaxUint16 {
		panic(fmt.Sprintf("wafl: virtual %v exceeds %d references", v, math.MaxUint16))
	}
	p[v&refPageMask]++
}

// unref drops one reference and reports whether it was the last; the page
// that held the last live count of its range is released for reuse.
func (t *refTable) unref(v block.VBN) (last bool) {
	i := v >> refPageShift
	p := t.dir[i]
	if p == nil || p[v&refPageMask] == 0 {
		panic(fmt.Sprintf("wafl: unref of unknown virtual %v", v))
	}
	p[v&refPageMask]--
	if p[v&refPageMask] != 0 {
		return false
	}
	t.n--
	if t.live[i]--; t.live[i] == 0 {
		t.dir[i] = nil
		t.free = append(t.free, p)
	}
	return true
}

// each calls fn for every referenced VBN in ascending order.
func (t *refTable) each(fn func(v block.VBN, n uint16)) {
	for i, p := range t.dir {
		if p == nil {
			continue
		}
		for j, n := range p {
			if n != 0 {
				fn(block.VBN(i<<refPageShift|j), n)
			}
		}
	}
}
