package wafl

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/hbps"
	"waflfs/internal/obs"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/picks"
	"waflfs/internal/parallel"
)

// agnosticSpace is the allocation machinery shared by every RAID-agnostic
// VBN space: the virtual space of each FlexVol volume and physical ranges
// backed by natively redundant storage (object stores). AAs are consecutive
// 32k-block runs and the AA cache is an HBPS (§3.3.2).
type agnosticSpace struct {
	name string
	topo *aa.Linear
	bm   *bitmap.Bitmap

	cache        *hbps.HBPS
	cacheEnabled bool
	workers      int // fan-out knob for replenish walks (Tunables.Workers)

	// Striped allocator hot path (AllocShards > 1, see allocctx.go): sh
	// stripes the HBPS list into per-shard pick queues; as holds the shard
	// ledgers and the modeled busy vectors. sh is nil on the classic path.
	sh *hbps.Sharded
	as *allocState

	// Allocation cursor within the current AA.
	curAA    aa.ID
	curValid bool
	cursor   block.VBN

	deltas *deltaLedger
	rng    *rand.Rand

	// flushDeltas is the sealed generation's delta bank (see pipeline.go):
	// sealCPDeltas swaps the open ledger here, new writes keep accumulating
	// into the other one, and foldSealed folds the bank into the HBPS when
	// the sealed generation commits. Empty between commits and after Remount.
	flushDeltas *deltaLedger

	// delayed, when non-nil, queues frees per AA with HBPS-tracked scores
	// instead of applying them immediately; see delayedfree.go. At depth 2
	// delayedSealed holds the previous generation's queue: frees landing
	// mid-flush go to delayed (the open generation) while the in-flight
	// flush reclaims only from delayedSealed, crediting each free to the CP
	// it logically belongs to. Depth 1 never creates it.
	delayed       *delayedFrees
	delayedSealed *delayedFrees

	// Measurement counters.
	pickedScoreSum float64
	pickedCount    uint64
	cacheOps       uint64
	replenishes    uint64
	// scannedBlocks counts bitmap positions the allocation cursor swept
	// (allocated blocks plus skipped-over used blocks). Consuming a fuller
	// AA sweeps more positions per allocated block — the §2.5 cost of not
	// colocating virtual VBNs, which the CPU model charges per unit.
	scannedBlocks   uint64
	allocatedBlocks uint64

	// Observability handles (nil-safe; set by Aggregate.registerSpaceObs).
	st     *obs.SysTracer
	shard  int // trace shard: volume index, or poolShard for the pool
	pobs   *parallel.Obs
	scored *obs.Counter
	// lat is the per-volume modeled op-latency histogram feeding the SLO
	// latency SLI (vol.<name>.lat_ns; nil for the pool). Reads observe
	// their modeled device+CPU cost per op; writes observe their share of
	// the CP's modeled cost at commit (see attributeWrites).
	lat *obs.Histogram

	// Allocation-decision provenance and watchdog hooks (nil when off;
	// set by Aggregate.registerSpaceObs). cpNow points at the aggregate's
	// current CP ordinal; wdCursor rotates the watchdog's listed-AA sample
	// window across the HBPS list.
	pr       *picks.Ring
	cpNow    *uint64
	wd       *watchdogState
	wdCursor int

	// Op tracing (nil/zero when off; set by Aggregate.registerSpaceObs).
	// tr is the volume's optrace ring; curTID is the trace ID of the
	// sampled op currently allocating (0 otherwise), stamped into pick
	// provenance records; lastPick snapshots the most recent pick decision
	// for the trace's alloc annotation span; attr accumulates per-stage
	// attributed nanoseconds that reconcile exactly with lat's total.
	tr       *optrace.Ring
	curTID   uint64
	lastPick pickNote
	attr     [optrace.NumStages]uint64
}

// pickNote is the last pick decision, kept for optrace span annotation.
type pickNote struct {
	aa     uint32
	score  int64
	runner int64
	reason picks.Reason
}

func newAgnosticSpace(name string, space block.Range, bm *bitmap.Bitmap, tun Tunables, enabled bool, rng *rand.Rand) *agnosticSpace {
	topo := aa.NewLinearDefault(space)
	s := &agnosticSpace{
		name:         name,
		topo:         topo,
		bm:           bm,
		cacheEnabled: enabled,
		workers:      tun.Workers,
		as:           newAllocState(tun, topo.NumAAs()),
		deltas:       newDeltaLedger(topo.NumAAs()),
		flushDeltas:  newDeltaLedger(topo.NumAAs()),
		rng:          rng,
	}
	s.cache = hbps.New(hbps.DefaultConfig())
	// Fresh space: every AA is empty, so every AA scores its full size.
	for id := 0; id < s.topo.NumAAs(); id++ {
		s.cache.Track(aa.ID(id), s.aaScore(aa.ID(id)))
	}
	s.resetShardCache()
	return s
}

// resetShardCache (re)builds the shard queues around the current HBPS
// object and drops all ledger state. Called wherever the cache is replaced
// or rebuilt wholesale (fresh build, remount, repair).
func (s *agnosticSpace) resetShardCache() {
	s.as.clearLedgers()
	if s.as.sharded() && s.cacheEnabled {
		s.sh = hbps.NewSharded(s.cache, s.as.shards, s.as.batch)
	} else {
		s.sh = nil
	}
}

// pendingDelta is the total pending score delta for id: the shared ledger
// plus every shard ledger plus the sealed flush bank (the quantity the
// scrub invariant subtracts). Including the sealed bank keeps the scrub
// and watchdog invariants valid mid-pipeline: a sealed delta is still a
// bitmap mutation the cache has not yet seen.
func (s *agnosticSpace) pendingDelta(id aa.ID) int64 {
	return s.as.pending(id, s.deltas) + s.flushDeltas.get(id)
}

func (s *agnosticSpace) aaScore(id aa.ID) uint32 {
	return uint32(aa.Score(s.topo, s.bm, id))
}

// pick selects the next AA: HBPS pop when enabled (replenishing from a
// bitmap walk if the list has run dry), uniformly random otherwise.
func (s *agnosticSpace) pick() bool {
	if s.sh != nil {
		return s.pickSharded()
	}
	var id aa.ID
	if s.cacheEnabled {
		reason := picks.HBPSBin
		wdOn := s.wd != nil && s.wd.enabled
		frontBin := -1
		if wdOn { // capture the claimed bin before the pop unlists the item
			if _, b, ok := s.cache.PeekBestBin(); ok {
				frontBin = b
			}
		}
		got, ok := s.cache.PopBest()
		if !ok {
			s.st.Emit("alloc.virt", s.shard, "list_dry", 0, 0)
			s.replenish()
			reason = picks.Refill
			if wdOn {
				frontBin = -1
				if _, b, peeked := s.cache.PeekBestBin(); peeked {
					frontBin = b
				}
			}
			if got, ok = s.cache.PopBest(); !ok {
				return false
			}
		}
		s.cacheOps++
		s.as.picks++
		s.as.pickBusy[0] += s.as.opCost // shared critical section: one vector
		id = got
		if s.st != nil { // score recomputation is pure popcount; skip when off
			s.st.Emit("alloc.virt", s.shard, "hbps_pop", 0, int64(s.aaScore(id)))
		}
		if wdOn {
			s.wd.pickCheckSpace(s, id, frontBin)
		}
		if s.pr != nil || s.tr != nil {
			runner := int64(-1)
			if _, bin, ok := s.cache.PeekBestBin(); ok {
				// HBPS has no runner-up score; record the next listed AA's
				// bin floor as the guaranteed lower bound.
				runner = int64(s.cache.BinFloor(bin))
			}
			score := int64(s.aaScore(id))
			s.lastPick = pickNote{aa: uint32(id), score: score, runner: runner, reason: reason}
			if s.pr != nil {
				s.pr.Record(*s.cpNow, uint32(id), score, runner, s.cache.ListLen(), reason, s.curTID)
			}
		}
	} else {
		n := s.topo.NumAAs()
		found := false
		for try := 0; try < 16 && !found; try++ {
			id = aa.ID(s.rng.Intn(n))
			found = s.aaScore(id) > 0
		}
		if !found {
			start := s.rng.Intn(n)
			for off := 0; off < n; off++ {
				id = aa.ID((start + off) % n)
				if s.aaScore(id) > 0 {
					found = true
					break
				}
			}
		}
		if !found {
			return false
		}
		if s.st != nil {
			s.st.Emit("alloc.virt", s.shard, "random_pick", 0, int64(s.aaScore(id)))
		}
		if s.pr != nil || s.tr != nil {
			score := int64(s.aaScore(id))
			s.lastPick = pickNote{aa: uint32(id), score: score, runner: -1, reason: picks.BitmapFallback}
			if s.pr != nil {
				s.pr.Record(*s.cpNow, uint32(id), score, -1, 0, picks.BitmapFallback, s.curTID)
			}
		}
	}
	s.curAA = id
	s.curValid = true
	seg := s.topo.Segment(id)
	s.cursor = seg.Start
	s.pickedScoreSum += float64(s.aaScore(id)) / float64(seg.Len())
	s.pickedCount++
	return true
}

// pickSharded is the striped pick path: pop the fixed shard's queue front,
// staging ahead of exhaustion so refills — including the background bitmap
// rescan when the shared list runs dry — hide behind ongoing picks. The
// shard assignment is seq%shards, worker-independent, so the pick stream
// is bit-identical at any worker width.
func (s *agnosticSpace) pickSharded() bool {
	as := s.as
	shard := as.nextShard()
	reason := picks.ShardLocal
	id, ok := s.sh.Pop(shard)
	if !ok {
		// Stall: queue and standby batch are both dry. Refill synchronously;
		// this cost serializes, unlike pipelined staging.
		reason = picks.Refill
		as.stalls++
		n := s.stageShard(shard)
		as.stallBusy += time.Duration(n+1) * as.opCost
		if id, ok = s.sh.Pop(shard); !ok {
			// The shared list is dry, but other shards may still hoard IDs
			// (shards × batch can exceed the space's AA count). Rebalance:
			// drop every held ID back to tracked-but-unlisted and restage —
			// the replenish inside stageShard re-lists them.
			if s.sh.HeldCount() > 0 {
				n = s.sh.FlushAll()
				n += s.stageShard(shard)
				as.stallBusy += time.Duration(n) * as.opCost
				id, ok = s.sh.Pop(shard)
			}
			if !ok {
				return false
			}
		}
	}
	s.cacheOps++
	as.picks++
	if reason == picks.ShardLocal {
		as.localPicks++
	}
	as.pickBusy[shard] += as.opCost
	if s.st != nil { // score recomputation is pure popcount; skip when off
		s.st.Emit("alloc.virt", s.shard, "shard_pop", 0, int64(s.aaScore(id)))
	}
	if s.wd != nil && s.wd.enabled {
		// The staged near-best window spans shards×batch list positions, so
		// there is no single claimed bin to verify; the non-negative-score
		// floor still holds (claimed < 0 skips the bin comparison).
		s.wd.pickCheckSpace(s, id, -1)
	}
	if s.pr != nil || s.tr != nil {
		score := int64(s.aaScore(id))
		s.lastPick = pickNote{aa: uint32(id), score: score, runner: -1, reason: reason}
		if s.pr != nil {
			s.pr.Record(*s.cpNow, uint32(id), score, -1, s.sh.Len(shard)+s.cache.ListLen(), reason, s.curTID)
		}
	}
	// Pipelined refill: stage the next batch while the current one still
	// serves picks, so the eventual drain swaps in without stalling.
	if s.sh.Low(shard) {
		n := s.sh.Stage(shard, s.stageSkip)
		s.cacheOps += uint64(n)
		as.staged += uint64(n)
		as.refillBusy += time.Duration(n) * as.opCost
	}
	as.curShard = shard
	s.curAA = id
	s.curValid = true
	seg := s.topo.Segment(id)
	s.cursor = seg.Start
	s.pickedScoreSum += float64(s.aaScore(id)) / float64(seg.Len())
	s.pickedCount++
	return true
}

// stageSkip keeps the in-flight cursor AA out of the shard queues: the CP
// fold or a replenish may re-list it mid-consumption, and queueing it would
// double-pick it.
func (s *agnosticSpace) stageSkip(id aa.ID) bool {
	return s.curValid && id == s.curAA
}

// stageShard refills the shard's standby batch off the shared list, running
// the background bitmap rescan first when the list itself has run dry — the
// rescan is part of the staged refill, so on the pipelined path its latency
// hides behind ongoing picks too. Returns entries staged.
func (s *agnosticSpace) stageShard(shard int) int {
	if s.cache.NeedsReplenish() {
		s.st.Emit("alloc.virt", s.shard, "list_dry", 0, 0)
		s.replenish()
	}
	n := s.sh.Stage(shard, s.stageSkip)
	s.cacheOps += uint64(n)
	return n
}

// replenish rebuilds the HBPS from a full bitmap walk — the background scan
// of §3.3.2 — charging the metafile reads and discarding pending deltas
// (the recomputed scores already include them). The popcount work shards
// across the work pool; the scan is charged whole-space once up front, so
// accounting does not depend on the shard count, and the scores feed the
// HBPS in AA order regardless of which worker computed them.
func (s *agnosticSpace) replenish() {
	s.replenishes++
	s.bm.ChargeScan(s.topo.Space())
	s.deltas.clear()
	s.flushDeltas.clear()
	s.as.clearLedgers()
	scores := aa.ScoresObs(s.topo, s.bm, s.workers, s.pobs, s.scored)
	s.cache.Replenish(func(yield func(aa.ID, uint32)) {
		for id, sc := range scores {
			yield(aa.ID(id), uint32(sc))
		}
	})
	s.cacheOps += uint64(s.topo.NumAAs())
}

// allocate appends up to n free VBNs to dst, consuming the current AA
// sequentially and moving to the next best AA as each drains ("the write
// allocator picks an AA and then assigns all free VBNs from the AA in
// sequential order", §3.1). It appends fewer than n only when the space is
// out of free blocks.
func (s *agnosticSpace) allocate(dst []block.VBN, n int) []block.VBN {
	out, stop := dst, len(dst)+n
	for len(out) < stop {
		if !s.curValid {
			if s.bm.CountFree(s.topo.Space()) == 0 {
				return out
			}
			if !s.pick() {
				return out
			}
		}
		seg := s.topo.Segment(s.curAA)
		v, ok := s.bm.NextFree(s.cursor, seg)
		if !ok {
			s.scannedBlocks += uint64(seg.End - s.cursor)
			s.curValid = false
			continue
		}
		s.bm.Set(v)
		s.as.noteAlloc(s.curAA, s.deltas)
		s.scannedBlocks += uint64(v-s.cursor) + 1
		s.allocatedBlocks++
		s.cursor = v + 1
		out = append(out, v)
	}
	return out
}

// free returns a VBN to the space — immediately, or via the delayed-free
// queue when enabled.
func (s *agnosticSpace) free(v block.VBN) {
	if !s.bm.Test(v) {
		panic(fmt.Sprintf("wafl: double free of %v in %s", v, s.name))
	}
	if s.delayed != nil {
		s.delayed.add(s.topo.AAOf(v), v)
		return
	}
	s.bm.Clear(v)
	s.as.noteFree(s.topo.AAOf(v), s.deltas)
}

// sealCPDeltas closes the open generation's ledger: shard ledgers fold into
// the shared one (shard-index order, ascending IDs within each shard, so the
// totals are identical at any worker width), then it swaps with the flush
// bank — empty here, since the previous generation's fold drained it. New
// writes accumulate into the other ledger while the sealed bank waits for
// foldSealed at the generation's commit.
func (s *agnosticSpace) sealCPDeltas() {
	s.as.fold(s.deltas)
	s.deltas, s.flushDeltas = s.flushDeltas, s.deltas
	if s.sh != nil {
		s.sh.AdvanceGen()
	}
}

// foldSealed folds the sealed generation's delta bank into the HBPS when
// its flush commits. The HBPS stores no per-AA scores, so the current
// listed score is derived from the authoritative bitmap count minus every
// delta the cache has not seen (shard ledgers + open ledger — none at depth 1,
// where the seal was a moment ago); subtracting the sealed delta from that
// gives the score the entry was listed at. Both are provably non-negative —
// a violation means ledger corruption. Updates are applied in AA order: the
// HBPS pop order breaks score ties by insertion sequence, so folding in any
// other order would change allocation decisions. An entry whose delta came
// to zero moves no score and costs nothing. idleRow as for Group.foldSealed.
func (s *agnosticSpace) foldSealed(idleRow bool) {
	if !s.cacheEnabled {
		s.flushDeltas.clear()
		return
	}
	if s.flushDeltas.len() == 0 && !idleRow {
		return
	}
	var folds int64
	s.flushDeltas.drain(func(id aa.ID, d int64) {
		if d == 0 {
			return
		}
		cur := int64(s.aaScore(id)) - s.as.pending(id, s.deltas)
		old := cur - d
		if cur < 0 || old < 0 {
			panic(fmt.Sprintf("wafl: %s AA %d sealed delta %d implies negative score (cur %d)", s.name, id, d, cur))
		}
		s.cache.Update(id, uint32(old), uint32(cur))
		s.cacheOps++
		folds++
	})
	s.st.Emit("cp.fold.virt", s.shard, "hbps_updates", 0, folds)
}

// sortedIDs returns the map's keys in ascending AA order, so the delayed-free
// queues hand their AAs to the HBPS deterministically.
func sortedIDs[V any](m map[aa.ID]V) []aa.ID {
	ids := make([]aa.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// SpaceMetrics mirrors GroupMetrics for RAID-agnostic spaces.
type SpaceMetrics struct {
	PickedScoreFraction float64
	CacheOps            uint64
	Replenishes         uint64
	// ScannedBlocks is the allocation cursor's cumulative sweep length;
	// divided by blocks allocated it is the inverse of the mean free
	// fraction actually consumed.
	ScannedBlocks uint64
	// AllocatedBlocks counts blocks assigned since the last reset.
	AllocatedBlocks uint64
}

func (s *agnosticSpace) metrics() SpaceMetrics {
	m := SpaceMetrics{CacheOps: s.cacheOps, Replenishes: s.replenishes,
		ScannedBlocks: s.scannedBlocks, AllocatedBlocks: s.allocatedBlocks}
	if s.pickedCount > 0 {
		m.PickedScoreFraction = s.pickedScoreSum / float64(s.pickedCount)
	}
	return m
}

func (s *agnosticSpace) resetMetrics() {
	s.pickedScoreSum, s.pickedCount = 0, 0
	s.cacheOps, s.replenishes = 0, 0
	s.as.resetCounters()
	// Note: reset only between CPs (the alloc stage snapshots scannedBlocks
	// at its start, and sweeps happen only inside it).
	s.scannedBlocks, s.allocatedBlocks = 0, 0
}
