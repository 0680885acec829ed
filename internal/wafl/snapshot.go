package wafl

import (
	"errors"
	"fmt"
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

// Snapshots. WAFL's copy-on-write design makes snapshot creation cheap — a
// snapshot is just a pinned copy of the block pointers (§1) — and snapshot
// deletion frees large batches of blocks at once, which is one of the
// internal activities that "further adds to the nonuniformity" of free
// space the AA caches exploit (§4.1.1).
//
// Reference counting: every written LUN block (a virtual+physical VBN pair)
// carries a count of referents — the active LUN image plus any snapshots.
// A COW overwrite or hole punch drops the active reference; the pair's
// storage is freed only when the last reference goes.

// The counts live in the FlexVol's refTable, keyed by virtual VBN (each pair
// is uniquely identified by its virtual address within the volume).

// refNew registers a freshly allocated pair with one reference.
func (v *FlexVol) refNew(virt block.VBN) { v.rc.refNew(virt) }

// ref adds a reference to an existing pair.
func (v *FlexVol) ref(virt block.VBN) { v.rc.ref(virt) }

// unref drops one reference; when the last goes, both VBNs are freed and
// the function reports true.
func (s *System) unref(v *FlexVol, p blockPtr) bool {
	if !v.rc.unref(p.virt) {
		return false
	}
	v.space.free(p.virt)
	s.Agg.FreePhysical(p.phys)
	s.c.BlocksFreed++
	return true
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
func (s *System) CreateSnapshot(l *LUN, name string) (*Snapshot, error) {
	if !s.atBoundary() {
		return nil, ErrCPInProgress
	}
	if l.snaps == nil {
		l.snaps = make(map[string]*Snapshot)
	}
	if _, dup := l.snaps[name]; dup {
		panic(fmt.Sprintf("wafl: duplicate snapshot %q on LUN %q", name, l.Name))
	}
	sn := &Snapshot{Name: name, blocks: append([]blockPtr(nil), l.blocks...)}
	for _, p := range sn.blocks {
		if p.virt != block.InvalidVBN {
			l.vol.ref(p.virt)
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
// writes pending or a pipelined generation in flight.
func (s *System) DeleteSnapshot(l *LUN, name string) (int, error) {
	if !s.atBoundary() {
		return 0, ErrCPInProgress
	}
	sn, ok := l.snaps[name]
	if !ok {
		panic(fmt.Sprintf("wafl: no snapshot %q on LUN %q", name, l.Name))
	}
	freed := 0
	for _, p := range sn.blocks {
		if p.virt != block.InvalidVBN && s.unref(l.vol, p) {
			freed++
		}
	}
	delete(l.snaps, name)
	return freed, nil
}

// RestoreSnapshot rolls the LUN's active image back to the snapshot
// (SnapRestore): the current image's references are dropped and the
// snapshot's pointers become the active ones. The snapshot itself remains.
// Must run at a CP boundary; returns ErrCPInProgress with writes pending or
// a pipelined generation in flight.
func (s *System) RestoreSnapshot(l *LUN, name string) error {
	if !s.atBoundary() {
		return ErrCPInProgress
	}
	sn, ok := l.snaps[name]
	if !ok {
		panic(fmt.Sprintf("wafl: no snapshot %q on LUN %q", name, l.Name))
	}
	// Take the new references first so blocks shared between the current
	// image and the snapshot never transit through zero.
	for _, p := range sn.blocks {
		if p.virt != block.InvalidVBN {
			l.vol.ref(p.virt)
		}
	}
	for _, p := range l.blocks {
		if p.virt != block.InvalidVBN {
			s.unref(l.vol, p)
		}
	}
	copy(l.blocks, sn.blocks)
	return nil
}

// CheckRefcounts verifies the volume-wide refcount invariant: every
// allocated virtual VBN is referenced by exactly rc holders among the
// active LUN images and snapshots, and every reference points at an
// allocated pair. Tests call this after snapshot workloads.
func (v *FlexVol) CheckRefcounts() error {
	census := newRefTable(v.bm.Size())
	count := func(blocks []blockPtr) {
		for _, p := range blocks {
			if p.virt == block.InvalidVBN {
				continue
			}
			if census.get(p.virt) == 0 {
				census.refNew(p.virt)
			} else {
				census.ref(p.virt)
			}
		}
	}
	for _, l := range v.luns {
		count(l.blocks)
		for _, sn := range l.snaps {
			count(sn.blocks)
		}
	}
	if census.Len() != v.rc.Len() {
		return fmt.Errorf("refcount census %d entries, rc table %d", census.Len(), v.rc.Len())
	}
	var err error
	census.each(func(virt block.VBN, n uint16) {
		switch {
		case err != nil:
		case v.rc.get(virt) != n:
			err = fmt.Errorf("virtual %v: rc %d, census %d", virt, v.rc.get(virt), n)
		case !v.bm.Test(virt):
			err = fmt.Errorf("virtual %v referenced but not allocated", virt)
		}
	})
	if err != nil {
		return err
	}
	// Blocks queued for delayed free are still allocated in the bitmap but
	// referenced by nobody.
	if uint64(census.Len()+v.PendingFrees()) != v.bm.Used() {
		return fmt.Errorf("census %d + pending %d blocks, bitmap used %d",
			census.Len(), v.PendingFrees(), v.bm.Used())
	}
	return nil
}
