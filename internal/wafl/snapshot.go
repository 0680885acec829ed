package wafl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"waflfs/internal/block"
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

// Snapshots. WAFL's copy-on-write design makes snapshot creation cheap — a
// snapshot is just a pinned copy of the block pointers (§1) — and snapshot
// deletion frees large batches of blocks at once, which is one of the
// internal activities that "further adds to the nonuniformity" of free
// space the AA caches exploit (§4.1.1).
//
// Reference counting: a written LUN block (a virtual+physical VBN pair,
// named by its virtual VBN) is held by the active image, by snapshots, or
// both, and its storage is freed when the last holder goes. There are no
// clones and no dedup, and restore, the cleaner, Demote and TierOut all keep
// the LBA, so every holder of a pair holds it at the same LBA of the same
// LUN. Where the count lives follows from that:
//
//   - a pair in an active image: nowhere for the image's own reference, and
//     LUN.shared[lba] for the snapshots whose pointer at that LBA is the
//     same pair. A LUN without snapshots has no counts at all.
//   - a pair only snapshots hold: FlexVol.rc, by virtual VBN.
//
// An overwrite or punch takes shared[lba]: zero frees the old pair on the
// spot, n moves it into rc with n holders. A snapshot create adds one to
// shared at every written LBA; a delete subtracts where the snapshot still
// matches the active image and unrefs in rc where it has diverged; a restore
// swaps the two homes per differing LBA.

// dropActive retires the pair the active image of l held at lba, whose
// pointer the caller has overwritten or is about to: into the snapshot-only
// table if snapshots still hold it, else freed (reported true).
func (s *System) dropActive(l *LUN, lba uint64, old blockPtr) bool {
	if n := l.shared.take(lba); n != 0 {
		l.vol.rc.set(old.virt, n)
		return false
	}
	s.freePair(l.vol, old)
	return true
}

// freePair frees both VBNs of a pair nobody holds any more.
func (s *System) freePair(v *FlexVol, p blockPtr) {
	v.space.free(p.virt)
	s.Agg.FreePhysical(p.phys)
	s.c.BlocksFreed++
	v.live--
}

// Snapshot is a point-in-time image of one LUN.
type Snapshot struct {
	Name   string
	blocks []blockPtr
}

// Blocks returns how many written blocks the snapshot references.
func (sn *Snapshot) Blocks() int {
	n := 0
	for _, p := range sn.blocks {
		if p.virt != block.InvalidVBN {
			n++
		}
	}
	return n
}

// CreateSnapshot captures the LUN's current image under name. It must run
// at a CP boundary (in WAFL a snapshot is a CP that is preserved): with
// writes pending or a pipelined generation in flight it returns
// ErrCPInProgress. The operation copies only pointers; no data blocks move.
// A name in use returns ErrSnapshotExists, a full LUN ErrTooManySnapshots.
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
	sn := &Snapshot{Name: name, blocks: append([]blockPtr(nil), l.blocks...)}
	var written uint64
	for lba, p := range sn.blocks {
		if p.virt != block.InvalidVBN {
			written |= 1 << (lba % 64)
		}
		if lba%64 == 63 || lba == len(sn.blocks)-1 {
			l.shared.add(lba/64, written)
			written = 0
		}
	}
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
	freed := 0
	var same uint64 // the LBAs of this word where the active image holds the pair too
	for lba, p := range sn.blocks {
		switch {
		case p.virt == block.InvalidVBN:
		case p.virt == l.blocks[lba].virt:
			same |= 1 << (lba % 64)
		case l.vol.rc.unref(p.virt):
			s.freePair(l.vol, p)
			freed++
		}
		if lba%64 == 63 || lba == len(sn.blocks)-1 {
			l.shared.sub(lba/64, same)
			same = 0
		}
	}
	if delete(l.snaps, name); len(l.snaps) == 0 {
		l.shared.planes = nil // all zero now
	}
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
	for lba, in := range sn.blocks {
		out := l.blocks[lba]
		if in.virt == out.virt {
			continue
		}
		if out.virt != block.InvalidVBN {
			s.dropActive(l, uint64(lba), out)
		}
		if in.virt != block.InvalidVBN {
			// The pair comes back from the snapshot-only table with the
			// holders it had there, this snapshot among them.
			l.shared.put(uint64(lba), l.vol.rc.remove(in.virt))
		}
		l.blocks[lba] = in
	}
	return nil
}

// CheckRefcounts verifies the volume-wide refcount invariants by census:
// every holder of a pair sits at one LBA of one LUN; a pair in an active
// image has 1 + shared[lba] holders and no table entry; a pair only
// snapshots hold has exactly its rc count of them; every held pair is
// allocated, and nothing else is but the blocks queued for delayed free.
// Tests and the benchmark call this after snapshot workloads.
func (v *FlexVol) CheckRefcounts() error {
	type holders struct {
		l   *LUN
		lba int
		n   int
	}
	census := make(map[block.VBN]holders)
	count := func(l *LUN, blocks []blockPtr) error {
		for lba, p := range blocks {
			if p.virt == block.InvalidVBN {
				continue
			}
			h, ok := census[p.virt]
			if !ok {
				h = holders{l: l, lba: lba}
			} else if h.l != l || h.lba != lba {
				return fmt.Errorf("virtual %v held at %s[%d] and at %s[%d]", p.virt, h.l.Name, h.lba, l.Name, lba)
			}
			h.n++
			census[p.virt] = h
		}
		return nil
	}
	for _, l := range v.luns {
		if err := count(l, l.blocks); err != nil {
			return err
		}
		for _, sn := range l.snaps {
			if err := count(l, sn.blocks); err != nil {
				return err
			}
		}
		for lba, p := range l.blocks {
			if n := l.shared.get(uint64(lba)); p.virt == block.InvalidVBN && n != 0 {
				return fmt.Errorf("%s[%d] is unwritten with a shared count of %d", l.Name, lba, n)
			}
		}
	}
	snapOnly := 0
	for virt, h := range census {
		rc := int(v.rc.get(virt))
		if h.l.blocks[h.lba].virt == virt {
			if shared := int(h.l.shared.get(uint64(h.lba))); h.n != 1+shared || rc != 0 {
				return fmt.Errorf("virtual %v, active at %s[%d]: census %d, shared %d, rc %d", virt, h.l.Name, h.lba, h.n, shared, rc)
			}
		} else if snapOnly++; h.n != rc {
			return fmt.Errorf("virtual %v, snapshot-only: rc %d, census %d", virt, rc, h.n)
		}
		if !v.bm.Test(virt) {
			return fmt.Errorf("virtual %v referenced but not allocated", virt)
		}
	}
	if snapOnly != v.rc.Len() || len(census) != v.live {
		return fmt.Errorf("census %d pairs (%d snapshot-only), live count %d, rc table %d", len(census), snapOnly, v.live, v.rc.Len())
	}
	// Blocks queued for delayed free are still allocated in the bitmap but
	// referenced by nobody.
	if uint64(len(census)+v.PendingFrees()) != v.bm.Used() {
		return fmt.Errorf("census %d + pending %d blocks, bitmap used %d",
			len(census), v.PendingFrees(), v.bm.Used())
	}
	return nil
}
