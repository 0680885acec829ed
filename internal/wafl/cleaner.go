package wafl

import (
	"fmt"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/ordset"
)

// CleanStats summarizes one segment-cleaning pass.
type CleanStats struct {
	// AAsCleaned is the number of allocation areas fully emptied.
	AAsCleaned int
	// BlocksRelocated is the number of in-use blocks moved elsewhere.
	BlocksRelocated int
	// AlreadyEmpty counts AAs popped that needed no work.
	AlreadyEmpty int
}

// CleanBestAAs performs WAFL-style segment cleaning on group g (§3.3.1):
// the content of all in-use blocks in each AA near the top of the max-heap
// is relocated elsewhere so the AA becomes completely empty. Cleaning the
// best-scoring AAs relocates the fewest blocks, which is why just-in-time
// cleaning of cache-provided AAs yields the best return on investment.
//
// Cleaning is physical-only: relocated blocks keep their virtual VBNs, as
// block virtualization within a FlexVol permits. The pass must run at a CP
// boundary (no writes buffered, no generation in flight — it re-inserts the
// cleaned AAs at their bitmap scores, which a sealed delta would then fold
// on top of), and requires the RAID-aware cache to be enabled. Relocation writes are charged at the next CP like
// any other allocation; relocation reads are charged immediately.
func (s *System) CleanBestAAs(g *Group, maxAAs int) CleanStats {
	if !g.cacheEnabled {
		panic("wafl: segment cleaning requires the RAID-aware AA cache")
	}
	if !s.atBoundary() {
		panic("wafl: segment cleaning must run at a CP boundary")
	}
	var st CleanStats
	if maxAAs <= 0 {
		return st
	}
	// Make sure the group's held AA doesn't shadow the heap's view.
	g.finishAA(s.Agg.bm)
	// Likewise entries staged in shard queues: flush them back so the heap
	// pops the true best AAs for cleaning; the queues restage at the end.
	g.q.FlushAll()

	// Repointing needs the pointer slots of the blocks that move, and of no
	// others: one scan for the used blocks of the heap's best AAs, and one
	// more for any AA the pass reaches that was not among them (its own
	// relocation writes take AAs off the heap between pops).
	reverse := make(map[block.VBN][]*blockPtr)
	var want ordset.Bits
	want.Grow(s.Agg.bm.Size())
	for _, e := range g.cache.TopK(maxAAs) {
		for _, v := range s.usedVBNs(g, e.ID) {
			want.Add(uint64(v))
		}
	}
	s.indexSlots(reverse, &want)

	cleaned := make([]aa.ID, 0, maxAAs)
	for len(cleaned) < maxAAs {
		e, ok := g.cache.PopBest()
		if !ok {
			break
		}
		cleaned = append(cleaned, e.ID)
		used := s.usedVBNs(g, e.ID)
		if len(used) == 0 {
			st.AlreadyEmpty++
			continue
		}
		for _, v := range used {
			if reverse[v] == nil {
				want.Add(uint64(v))
			}
		}
		s.indexSlots(reverse, &want)
		// Read the live data (charged per contiguous run), then rewrite it
		// through the normal allocator, which now cannot pick this AA.
		s.chargeRelocationReads(g, e.ID)
		newPhys := s.Agg.AllocatePhysical(nil, len(used))
		if len(newPhys) < len(used) {
			panic("wafl: aggregate out of space during segment cleaning")
		}
		s.Agg.markFresh(newPhys)
		for i, old := range used {
			refs, ok := reverse[old]
			if !ok || len(refs) == 0 {
				panic(fmt.Sprintf("wafl: cleaner found orphan physical %v", old))
			}
			// Repoint every referent — the active image and any snapshots
			// share the same physical block and move together.
			for _, slot := range refs {
				slot.phys = pack(newPhys[i])
			}
			delete(reverse, old)
			reverse[newPhys[i]] = refs
			s.Agg.FreePhysical(old)
		}
		st.BlocksRelocated += len(used)
		st.AAsCleaned++
	}
	// Return every popped AA to the heap with its post-cleaning score.
	for _, id := range cleaned {
		g.cache.Insert(id, aa.Score(g.topo, s.Agg.bm, id))
		g.deltas.delete(id)
	}
	// Relocation writes mid-pass may have staged entries again; Restage
	// returns them first so the fresh batches see every AA. Ledger state is
	// untouched: frees noted since the last CP are still pending there.
	g.q.Restage()
	return st
}

// indexSlots scans every LUN's active image and snapshot deltas and adds to
// m the pointer slots holding a physical VBN in want, which it empties. The
// slots stay valid for the duration of the pass (no slice grows during it).
func (s *System) indexSlots(m map[block.VBN][]*blockPtr, want *ordset.Bits) {
	if want.Len() == 0 {
		return
	}
	add := func(blocks []blockPtr) {
		for i := range blocks {
			// InvalidVBN lies beyond the bitmap.
			if p := blocks[i].phys.vbn(); uint64(p) < s.Agg.bm.Size() && want.Has(uint64(p)) {
				m[p] = append(m[p], &blocks[i])
			}
		}
	}
	for _, v := range s.Agg.vols {
		for _, l := range v.luns {
			add(l.blocks)
			for _, sn := range l.chain {
				add(sn.d.ptrs)
			}
		}
	}
	want.Clear()
}

// usedVBNs lists the allocated physical VBNs within AA id of group g.
func (s *System) usedVBNs(g *Group, id aa.ID) []block.VBN {
	var out []block.VBN
	for _, seg := range g.topo.Segments(id) {
		pos := seg.Start
		for {
			v, ok := s.Agg.bm.NextUsed(pos, seg)
			if !ok {
				break
			}
			out = append(out, v)
			pos = v + 1
		}
	}
	return out
}

// chargeRelocationReads costs reading the live runs of an AA being cleaned.
func (s *System) chargeRelocationReads(g *Group, id aa.ID) {
	for d, seg := range g.topo.Segments(id) {
		for _, freeRun := range invertRuns(s.Agg.bm.FreeRuns(seg), seg) {
			s.c.DeviceBusy += g.devices[d].Read(freeRun.Len())
		}
	}
}

// invertRuns converts free runs within space into used runs.
func invertRuns(free []block.Range, space block.Range) []block.Range {
	var used []block.Range
	pos := space.Start
	for _, f := range free {
		if f.Start > pos {
			used = append(used, block.R(pos, f.Start))
		}
		pos = f.End
	}
	if pos < space.End {
		used = append(used, block.R(pos, space.End))
	}
	return used
}
