package wafl

import (
	"fmt"

	"waflfs/internal/block"
)

// The refTable counts, for the pairs a restore stored more than once, their
// entries beyond the first (snapshot.go); every other pair has one entry and
// no count. The table is keyed by virtual VBN — a small dense integer, so it
// is a paged array rather than a hash map: a directory with one slot per
// refPageSize virtual VBNs, pointing at counter pages that exist only while
// they hold a live count. A volume whose LUNs were never restored never
// allocates a page.
//
// Page size. A volume's virtual space is far larger than its data (thin
// provisioning: the mount_cycle benchmark's big volume spans 2048 AAs for a
// LUN of twelve), so a flat array is out, and so is a page per 32k-block AA:
// a few thousand counted blocks scattered over the AAs would pin a whole page
// per AA for a handful of counters each. The allocator fills an AA's free
// VBNs in ascending order, so blocks written together sit together and a
// restore brings them back together; 4096 counters per page follow that
// locality closely enough that pages empty and recycle as snapshots go.
//
// Counter width. A pair has at most one entry per snapshot delta plus the
// active one, and CreateSnapshot caps a LUN at MaxUint16 snapshots
// (ErrTooManySnapshots), so a count fits 16 bits; the limit is checked,
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
