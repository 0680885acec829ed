package wafl

import (
	"fmt"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/hbps"
	"waflfs/internal/ordset"
)

// Delayed frees. Freeing a block is not just a bitmap update: the metafile
// page must be read, modified, and written back, so WAFL batches frees and
// processes them sorted by location [17, 18]. The paper notes (§3.3.2) that
// the HBPS data structure "is used to track delayed-free scores": each AA's
// score is its count of pending frees, and the reclamation scan processes
// the AAs with the most pending frees first — the most metafile-efficient
// order, since all frees within an AA share one bitmap-metafile block.
//
// When Tunables.DelayedVirtFrees is enabled, virtual-VBN frees are queued
// per AA instead of applied immediately; each CP reclaims up to
// DelayedFreeBudgetPerCP blocks in HBPS (most-pending-first) order. Queued
// blocks stay allocated in the bitmap, so the allocator never hands them
// out before the reclaim applies.

// delayedFrees is the per-space queue plus the HBPS tracking its scores.
type delayedFrees struct {
	// pending[id] queues AA id's frees; queued holds the AAs whose queue is
	// not empty. An emptied queue keeps its storage for the next frees, so
	// steady-state reclaim allocates nothing; each AA holds its peak in both
	// generations' queues.
	pending [][]block.VBN
	queued  ordset.Bits
	count   int
	cache   *hbps.HBPS
}

func newDelayedFrees(numAAs int) *delayedFrees {
	d := &delayedFrees{
		pending: make([][]block.VBN, numAAs),
		cache:   hbps.New(hbps.DefaultConfig()),
	}
	d.queued.Grow(uint64(numAAs))
	return d
}

// add queues vs behind id's pending frees and raises the AA's delayed-free
// score by as many.
func (d *delayedFrees) add(id aa.ID, vs ...block.VBN) {
	old := len(d.pending[id])
	d.pending[id] = append(d.pending[id], vs...)
	d.count += len(vs)
	if d.queued.Add(uint64(id)) {
		d.cache.Track(id, uint32(len(vs)))
	} else {
		d.cache.Update(id, uint32(old), uint32(old+len(vs)))
	}
}

// pop removes and returns the AA with the most pending frees (within the
// HBPS error margin) and its queued blocks, which stay valid until the next
// add to that AA.
func (d *delayedFrees) pop() (aa.ID, []block.VBN, bool) {
	for {
		id, ok := d.cache.PopBest()
		if !ok {
			if d.count > 0 {
				// The list ran dry while counts remain: replenish from the
				// authoritative queue (the background scan of §3.3.2), in AA
				// order: the HBPS breaks score ties by insertion sequence.
				d.cache.Replenish(func(yield func(aa.ID, uint32)) {
					d.queued.Each(func(id uint64) { yield(aa.ID(id), uint32(len(d.pending[id]))) })
				})
				continue
			}
			return 0, nil, false
		}
		vs := d.pending[id]
		if len(vs) == 0 {
			// Stale list entry (shouldn't happen, but stay robust).
			continue
		}
		d.pending[id] = vs[:0]
		d.queued.Delete(uint64(id))
		d.count -= len(vs)
		d.cache.Untrack(id, uint32(len(vs)))
		return id, vs, true
	}
}

// absorb moves every queued free from o into d, in AA order so HBPS
// insertion sequence — and hence reclamation order — stays deterministic.
// Used at the depth-2 generation handoff: the sealed queue, still holding
// whatever its budget left behind (the carryover), absorbs the open one,
// and scores stay HBPS-consistent because each AA updates by its whole bulk.
func (d *delayedFrees) absorb(o *delayedFrees) {
	o.queued.Drain(func(id uint64) {
		vs := o.pending[id]
		d.add(aa.ID(id), vs...)
		o.pending[id] = vs[:0]
		o.cache.Untrack(aa.ID(id), uint32(len(vs)))
	})
	o.count = 0
}

// PendingFrees returns the number of queued (not yet applied) virtual-VBN
// frees in the volume, across both the open and (pipelined) sealed
// generations.
func (v *FlexVol) PendingFrees() int {
	n := 0
	if v.space.delayed != nil {
		n += v.space.delayed.count
	}
	if v.space.delayedSealed != nil {
		n += v.space.delayedSealed.count
	}
	return n
}

// reclaimDelayedFrees applies queued frees, best-AA-first, until the budget
// is exhausted (budget <= 0 means unlimited). Whole AAs are processed at a
// time, so the last one may overshoot the budget. The open queue credits
// its score drops to the open ledger; the sealed queue credits the sealed
// flushDeltas bank — its frees belong to the committing CP, not the open
// one — so the flush-time cache fold settles them with the rest of the
// generation. Whatever the budget leaves behind stays queued; a sealed
// leftover is carried into the next generation at the following seal
// (absorb).
func (s *agnosticSpace) reclaimDelayedFrees(sealed bool, budget int) {
	q, deltas := s.delayed, s.deltas
	if sealed {
		q, deltas = s.delayedSealed, s.flushDeltas
	}
	if q == nil {
		return
	}
	freed := 0
	for q.count > 0 && (budget <= 0 || freed < budget) {
		id, vs, ok := q.pop()
		if !ok {
			break
		}
		for _, v := range vs {
			if !s.bm.Clear(v) {
				panic(fmt.Sprintf("wafl: delayed free of unallocated %v in %s", v, s.name))
			}
		}
		deltas.add(id, int64(len(vs)))
		freed += len(vs)
	}
}
