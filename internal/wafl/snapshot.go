package wafl

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"waflfs/internal/block"
	"waflfs/internal/ordset"
)

// ErrCPInProgress reports that a boundary-only operation (snapshot create/
// delete/restore, hole punch, tier-out) was attempted while dirty writes are
// pending or — under pipelined CPs — while a sealed generation is still in
// flight. Callers should CP() (and Drain(), when pipelining) and retry.
// Before pipelining these mid-CP states were programming errors and panicked;
// with overlapped CPs an in-flight generation is a normal steady state, so
// the condition is a typed, recoverable error.
var ErrCPInProgress = errors.New("wafl: operation requires a CP boundary")

// Snapshot-name failures. Each leaves the system as it was.
var (
	ErrSnapshotExists   = errors.New("wafl: snapshot name already in use on this LUN")
	ErrNoSnapshot       = errors.New("wafl: no such snapshot on this LUN")
	ErrTooManySnapshots = fmt.Errorf("wafl: a LUN holds at most %d snapshots", math.MaxUint16)
)

// Snapshots. In WAFL a snapshot is a preserved CP root (§1), and snapshot
// deletion frees large batches of blocks at once, which is one of the
// internal activities that "further adds to the nonuniformity" of free space
// the AA caches exploit (§4.1.1). A snapshot here costs what has diverged
// since it was taken, not the size of its LUN.
//
// The chain. A LUN's snapshots form a chain in creation order, and each keeps
// a delta: at every LBA where the next newer image — the next snapshot, or
// the active image for the newest — no longer holds what this image held,
// the pair this image held there, or the unwritten marker (both VBNs
// InvalidVBN) if the LBA was unwritten in it. Snapshot i's pointer at an LBA
// is the first delta from i toward the newest that has the LBA, or the
// active pointer if none has.
//
//   - releases is the one place a delta grows. When the active image lets
//     go of its pointer at an LBA the newest delta lacks, the newest snapshot
//     still holds that pointer, so it moves into the newest delta; a first
//     write under a snapshot records the unwritten marker the same way.
//   - CreateSnapshot appends an empty delta. The previous newest one is
//     closed by no longer being newest; nothing is done per LBA.
//   - DeleteSnapshot of i walks delta i in ascending LBA order. An entry the
//     next older snapshot resolves through i (its own delta lacks the LBA)
//     moves into that delta; any other is dropped, and its pair is freed if
//     that was the pair's last entry. Only diverged LBAs can free, and they
//     free in the order full image copies freed them.
//   - RestoreSnapshot of i swaps the active image over the union of the
//     deltas from i to the newest, in ascending LBA order.
//
// Reference counting. A written pair (virtual + physical VBN, named by its
// virtual VBN) is freed when its last holder goes. There are no clones and
// no dedup, and restore, the cleaner, Demote and TierOut all keep the LBA,
// so every holder of a pair holds it at one LBA of one LUN. Without a restore
// the holders are consecutive images, and the pair is stored once: in the
// active image if they reach it, else in the delta of the newest of them.
// One entry per pair, and no count anywhere.
//
// A restore is the one exception. After RestoreSnapshot(i) the active image
// and a delta k ≥ i can hold the same pair at one LBA, with other images in
// between: the pair is stored twice. FlexVol.rc counts, for such pairs only,
// their entries beyond the first; an absent count means one entry. Dropping
// an entry takes one off the count or, with none, frees the pair; moving an
// entry changes nothing. A LUN that was never restored never touches rc.

// releases retires the pair the active image of l held at lba, whose
// pointer the caller has overwritten or is about to: into the newest
// snapshot's delta if that snapshot still holds it, else one entry dropped.
// It reports whether that left the pair with no holder, so the caller must
// free it — always, unless a restore stored it twice. An unwritten old
// pointer goes into the delta as the unwritten marker or nowhere.
func (l *LUN) releases(lba uint64, old blockPtr) bool {
	if n := len(l.chain); n > 0 && l.chain[n-1].d.add(lba, old) {
		return false
	}
	return old.virt != 0 && l.lastEntry(old)
}

// lastEntry drops one entry of l's pair p: a count a restore left loses one,
// and without one the entry was the last, reported true.
func (l *LUN) lastEntry(p blockPtr) bool {
	if l.rcPairs > 0 && l.vol.rc.get(p.virt.vbn()) != 0 {
		if l.vol.rc.unref(p.virt.vbn()) {
			l.rcPairs--
		}
		return false
	}
	return true
}

// freePairs frees both VBNs of every pair in ps, pairs of v nobody holds any
// more, in two loops: the virtual halves, then the physical ones. The two
// touch disjoint state — the volume's bitmap, ledger and delayed-free queue;
// the aggregate's bitmap, the group ledgers and write sets, the devices — so
// splitting them frees exactly what freeing pair by pair did, in the same
// order within each.
func (s *System) freePairs(v *FlexVol, ps []blockPtr) {
	v.space.freeVirtual(ps)
	s.Agg.freePhysical(ps)
	s.c.BlocksFreed += uint64(len(ps))
	v.live -= len(ps)
}

// Snapshot is a point-in-time image of one LUN.
type Snapshot struct {
	Name string
	lun  *LUN // nil once deleted
	d    snapDelta
}

// snapDelta is a snapshot's delta: the LBAs where its image differs from the
// next newer one, and the pair its image held at each. A closed delta
// changes only when a delete moves the next newer delta's entries into it.
type snapDelta struct {
	lbas ordset.Bits
	// ptrs[k] is the pair at LBA at[k], in the order the entries arrived.
	// An LBA fits 32 bits because a LUN does (checkCap).
	ptrs []blockPtr
	at   []uint32
}

// add records p at lba unless the delta already has the LBA, and reports
// whether it did.
func (d *snapDelta) add(lba uint64, p blockPtr) bool {
	if !d.lbas.Add(lba) {
		return false
	}
	d.ptrs, d.at = append(d.ptrs, p), append(d.at, uint32(lba))
	return true
}

// deltaScratch is what snapDelta.sort orders through: a spare pair of slabs
// and a rank table.
type deltaScratch struct {
	ptrs []blockPtr
	at   []uint32
	base []uint32
}

// sort puts the entries in ascending LBA order. Each goes to its LBA's rank
// among the delta's LBAs, read off the bitset, so nothing is compared; the
// old slabs become the scratch's.
func (d *snapDelta) sort(sc *deltaScratch) {
	sc.base = d.lbas.Ranks(sc.base)
	n := len(d.at)
	ptrs, at := slices.Grow(sc.ptrs[:0], n)[:n], slices.Grow(sc.at[:0], n)[:n]
	for k, lba := range d.at {
		r := d.lbas.Rank(sc.base, uint64(lba))
		ptrs[r], at[r] = d.ptrs[k], lba
	}
	sc.ptrs, sc.at = d.ptrs[:0], d.at[:0]
	d.ptrs, d.at = ptrs, at
}

// reset empties the delta, keeping its storage.
func (d *snapDelta) reset() {
	d.lbas.Clear()
	d.ptrs, d.at = d.ptrs[:0], d.at[:0]
}

// resolve calls fn, in ascending LBA order, with snapshot sn's pointer at
// every LBA where it may differ from the active image: the union of the
// deltas from sn to the newest. The deltas are laid over each other newest
// first, so at each LBA the first one from sn has the last word. fn may grow
// the newest delta.
func (l *LUN) resolve(sn *Snapshot, fn func(lba uint64, p blockPtr)) {
	from := slices.Index(l.chain, sn)
	var union ordset.Bits
	union.Grow(l.Blocks())
	for _, o := range l.chain[from:] {
		for _, lba := range o.d.at {
			union.Add(uint64(lba))
		}
	}
	base := union.Ranks(nil)
	img := make([]blockPtr, union.Len())
	for j := len(l.chain) - 1; j >= from; j-- {
		d := &l.chain[j].d
		for k, lba := range d.at {
			img[union.Rank(base, uint64(lba))] = d.ptrs[k]
		}
	}
	k := 0
	union.Each(func(lba uint64) {
		fn(lba, img[k])
		k++
	})
}

// Blocks returns how many written blocks the snapshot references (none once
// it is deleted).
func (sn *Snapshot) Blocks() int {
	l := sn.lun
	if l == nil {
		return 0
	}
	n := 0
	for _, p := range l.blocks {
		if p.virt != 0 {
			n++
		}
	}
	l.resolve(sn, func(lba uint64, p blockPtr) {
		if p.virt != 0 {
			n++
		}
		if l.blocks[lba].virt != 0 {
			n--
		}
	})
	return n
}

// CreateSnapshot captures the LUN's current image under name. It must run
// at a CP boundary (in WAFL a snapshot is a CP that is preserved): with
// writes pending or a pipelined generation in flight it returns
// ErrCPInProgress. The new snapshot starts with an empty delta — recycled
// from a deleted one when the LUN has one — and no pointer is copied. A name
// in use returns ErrSnapshotExists, a full LUN ErrTooManySnapshots.
func (s *System) CreateSnapshot(l *LUN, name string) (*Snapshot, error) {
	if !s.atBoundary() {
		return nil, ErrCPInProgress
	}
	if l.snaps[name] != nil {
		return nil, ErrSnapshotExists
	}
	if len(l.snaps) >= math.MaxUint16 {
		return nil, ErrTooManySnapshots
	}
	if l.snaps == nil {
		l.snaps = make(map[string]*Snapshot)
	}
	sn := &Snapshot{Name: name, lun: l}
	if k := len(l.spare); k > 0 {
		sn.d, l.spare[k-1] = l.spare[k-1], snapDelta{}
		l.spare = l.spare[:k-1]
	} else {
		sn.d.lbas.Grow(l.Blocks())
	}
	l.chain = append(l.chain, sn)
	l.snaps[name] = sn
	return sn, nil
}

// Snapshot returns the named snapshot, or nil.
func (l *LUN) Snapshot(name string) *Snapshot { return l.snaps[name] }

// SnapshotNames lists the LUN's snapshots in sorted order.
func (l *LUN) SnapshotNames() []string {
	out := make([]string, 0, len(l.snaps))
	for n := range l.snaps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DeleteSnapshot removes a snapshot, freeing every block whose last
// reference it held — the bulk-free behaviour whose batched AA score
// updates the caches absorb at the next CP. Returns the number of blocks
// actually freed. Must run at a CP boundary; returns ErrCPInProgress with
// writes pending or a pipelined generation in flight, ErrNoSnapshot for an
// unknown name.
func (s *System) DeleteSnapshot(l *LUN, name string) (int, error) {
	if !s.atBoundary() {
		return 0, ErrCPInProgress
	}
	sn := l.snaps[name]
	if sn == nil {
		return 0, ErrNoSnapshot
	}
	i := slices.Index(l.chain, sn)
	var older *snapDelta
	if i > 0 {
		older = &l.chain[i-1].d
	}
	d := &sn.d
	d.sort(&s.snapScratch)
	// The pairs to free collect at the front of the delta's own slab, which
	// the walk reads ahead of.
	frees := d.ptrs[:0]
	for k, lba := range d.at {
		switch p := d.ptrs[k]; {
		case older != nil && older.add(uint64(lba), p):
			// The next older snapshot saw this pointer through sn.
		case p.virt != 0 && l.lastEntry(p):
			frees = append(frees, p)
		}
	}
	s.freePairs(l.vol, frees)
	freed := len(frees)
	if len(l.spare) == 0 { // one is all a create-one, delete-one cycle needs
		d.reset()
		l.spare = append(l.spare, *d)
	}
	sn.d, sn.lun = snapDelta{}, nil
	l.chain = slices.Delete(l.chain, i, i+1)
	delete(l.snaps, name)
	return freed, nil
}

// RestoreSnapshot rolls the LUN's active image back to the snapshot
// (SnapRestore): the current image's references are dropped and the
// snapshot's pointers become the active ones. The snapshot itself remains.
// Must run at a CP boundary; returns ErrCPInProgress with writes pending or
// a pipelined generation in flight, ErrNoSnapshot for an unknown name.
func (s *System) RestoreSnapshot(l *LUN, name string) error {
	if !s.atBoundary() {
		return ErrCPInProgress
	}
	sn := l.snaps[name]
	if sn == nil {
		return ErrNoSnapshot
	}
	rc := l.vol.rc
	l.resolve(sn, func(lba uint64, in blockPtr) {
		out := l.blocks[lba]
		if in.virt == out.virt {
			return
		}
		if l.releases(lba, out) {
			s.freePairs(l.vol, []blockPtr{out})
		}
		if in.virt != 0 {
			// The pair stays in its delta and is now in the active image
			// too: one more entry. A count past MaxUint16 wraps to zero,
			// which set refuses.
			v := in.virt.vbn()
			n := rc.get(v)
			if n == 0 {
				l.rcPairs++
			} else {
				rc.remove(v)
			}
			rc.set(v, n+1)
		}
		l.blocks[lba] = in
	})
	return nil
}

// CheckRefcounts verifies the volume-wide refcount invariants by census over
// the active images and every snapshot delta: a pair's entries number one
// plus its rc count, and all sit at one LBA of one LUN; every delta's LBAs
// are inside its LUN, each listed once and in its bitset; each LUN's rcPairs
// is its share of the table; every held pair is allocated, the live count is
// the number of pairs, and nothing else is allocated but the blocks queued
// for delayed free. Tests and the benchmark call this after snapshot
// workloads.
func (v *FlexVol) CheckRefcounts() error {
	// census marks the pairs seen so far. Pairs with a count — the ones a
	// restore stored more than once, few — have their entries listed too.
	var census ordset.Bits
	census.Grow(v.bm.Size())
	type entry struct {
		virt block.VBN
		lun  int // index in luns
		lba  uint64
	}
	var counted []entry
	pairs := 0
	luns := make([]*LUN, 0, len(v.luns))
	for _, l := range v.luns {
		luns = append(luns, l)
	}
	slices.SortFunc(luns, func(a, b *LUN) int { return cmp.Compare(a.rank, b.rank) })
	visit := func(li int, lba uint64, p blockPtr) error {
		if p.virt == 0 {
			return nil
		}
		l, virt := luns[li], p.virt.vbn()
		switch {
		case uint64(virt) >= v.bm.Size() || !v.bm.Test(virt):
			return fmt.Errorf("virtual %v held at %s[%d] but not allocated", virt, l.Name, lba)
		case v.rc.get(virt) != 0:
			counted = append(counted, entry{virt, li, lba})
		case census.Has(uint64(virt)):
			return fmt.Errorf("virtual %v held again at %s[%d] with no count", virt, l.Name, lba)
		}
		if census.Add(uint64(virt)) {
			pairs++
		}
		return nil
	}
	for li, l := range luns {
		for lba, p := range l.blocks {
			if err := visit(li, uint64(lba), p); err != nil {
				return err
			}
		}
		var listed ordset.Bits
		listed.Grow(l.Blocks())
		for _, sn := range l.chain {
			d := &sn.d
			if len(d.at) != d.lbas.Len() || len(d.ptrs) != len(d.at) {
				return fmt.Errorf("%s@%s: %d LBAs in the delta's set, %d listed, %d pairs", l.Name, sn.Name, d.lbas.Len(), len(d.at), len(d.ptrs))
			}
			for k, at := range d.at {
				switch lba := uint64(at); {
				case lba >= l.Blocks():
					return fmt.Errorf("%s@%s holds LBA %d of a %d-block LUN", l.Name, sn.Name, lba, l.Blocks())
				case !d.lbas.Has(lba) || !listed.Add(lba):
					return fmt.Errorf("%s@%s lists LBA %d twice or outside its set", l.Name, sn.Name, lba)
				}
				if err := visit(li, uint64(at), d.ptrs[k]); err != nil {
					return err
				}
			}
			listed.Clear()
		}
	}
	slices.SortFunc(counted, func(a, b entry) int { return cmp.Compare(a.virt, b.virt) })
	rcPairs := make([]int, len(luns))
	for i, j := 0, 0; i < len(counted); i = j {
		e := counted[i]
		for j = i; j < len(counted) && counted[j].virt == e.virt; j++ {
			if o := counted[j]; o.lun != e.lun || o.lba != e.lba {
				return fmt.Errorf("virtual %v held at %s[%d] and at %s[%d]", e.virt, luns[e.lun].Name, e.lba, luns[o.lun].Name, o.lba)
			}
		}
		if n := int(v.rc.get(e.virt)); j-i != 1+n {
			return fmt.Errorf("virtual %v at %s[%d]: %d entries, rc count %d", e.virt, luns[e.lun].Name, e.lba, j-i, n)
		}
		rcPairs[e.lun]++
	}
	held := 0
	for li, l := range luns {
		if l.rcPairs != rcPairs[li] {
			return fmt.Errorf("%s claims %d pairs with an rc count, holds %d", l.Name, l.rcPairs, rcPairs[li])
		}
		held += rcPairs[li]
	}
	if held != v.rc.Len() {
		return fmt.Errorf("rc table holds %d pairs, %d held pairs have a count", v.rc.Len(), held)
	}
	if pairs != v.live {
		return fmt.Errorf("census %d pairs, live count %d", pairs, v.live)
	}
	// Blocks queued for delayed free are still allocated in the bitmap but
	// referenced by nobody.
	if uint64(pairs+v.PendingFrees()) != v.bm.Used() {
		return fmt.Errorf("census %d + pending %d blocks, bitmap used %d", pairs, v.PendingFrees(), v.bm.Used())
	}
	return nil
}
