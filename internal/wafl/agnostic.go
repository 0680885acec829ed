package wafl

import (
	"fmt"
	"math/rand"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/hbps"
	"waflfs/internal/obs"
	"waflfs/internal/parallel"
	"waflfs/internal/shardq"
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
	workers      int      // fan-out knob for replenish walks (Tunables.Workers)
	scores       []uint64 // replenish's walk scores into this, every time

	// The pick path (allocctx.go): q stages the HBPS list's front into
	// per-shard batches — at depth 0, AllocShards ≤ 1, it is the list's own
	// PopBest — and as holds the modeled busy vectors.
	q  *shardq.Queue[aa.ID]
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

	// frag is the space's allocation-quality scan state (fragscan.go), nil
	// until its first scan.
	frag *fragSpace

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
	stream string // metric prefix and stream name: "vol.<name>" or "pool"
	pobs   *parallel.Obs
	scored *obs.Counter
	// lat is the per-volume modeled op-latency histogram feeding the SLO
	// latency SLI (vol.<name>.lat_ns; nil for the pool). Reads observe
	// their modeled device+CPU cost per op; writes observe their share of
	// the CP's modeled cost at commit (see attributeWrites).
	lat *obs.Histogram

	// Pick provenance, watchdog and op-trace state (obs.go; nil/zero when
	// off, set by Aggregate.registerSpaceObs). wdCursor rotates the
	// watchdog's listed-AA sample window across the HBPS list.
	pickSink
	opSink
	wdCursor int
}

func newAgnosticSpace(name string, space block.Range, bm *bitmap.Bitmap, tun Tunables, enabled bool, rng *rand.Rand) *agnosticSpace {
	topo := aa.NewLinearDefault(space)
	s := &agnosticSpace{
		name:         name,
		topo:         topo,
		bm:           bm,
		cacheEnabled: enabled,
		workers:      tun.Workers,
		as:           newAllocState(tun),
		deltas:       newDeltaLedger(topo.NumAAs()),
		flushDeltas:  newDeltaLedger(topo.NumAAs()),
		rng:          rng,
	}
	s.cache = hbps.New(hbps.DefaultConfig())
	// Fresh space: every AA is empty, so every AA scores its full size.
	for id := 0; id < s.topo.NumAAs(); id++ {
		s.cache.Track(aa.ID(id), s.aaScore(aa.ID(id)))
	}
	s.q = shardq.New[aa.ID](s.cache, s.as.queueDepth(enabled), tun.allocBatch())
	return s
}

// pendingDelta is the total pending score delta for id: the open ledger
// plus the sealed flush bank (the quantity the scrub invariant subtracts).
// Including the sealed bank keeps the scrub and watchdog invariants valid
// mid-pipeline: a sealed delta is still a bitmap mutation the cache has not
// yet seen.
func (s *agnosticSpace) pendingDelta(id aa.ID) int64 {
	return s.deltas.get(id) + s.flushDeltas.get(id)
}

func (s *agnosticSpace) aaScore(id aa.ID) uint32 {
	return uint32(aa.Score(s.topo, s.bm, id))
}

// pick selects the next AA: the HBPS list's front when enabled, uniformly
// random otherwise. A cached pick pops the pick's fixed shard (seq%shards,
// worker-independent, so the pick stream is bit-identical at any worker
// width), running the background bitmap rescan first if the list itself has
// run dry, then stages the shard's next batch ahead of exhaustion so refills
// hide behind ongoing picks. At queue depth 0 the pop is the list's own
// PopBest and nothing is ever staged.
func (s *agnosticSpace) pick() bool {
	var (
		id    aa.ID
		score uint32
		p     shardq.Popped
		ok    bool
		shard int
	)
	claimed := -1
	if s.cacheEnabled {
		shard = s.as.nextShard()
		claimed = s.claimedBin()
		id, p, ok = s.q.Pop(shard, func() {
			if s.cache.NeedsReplenish() {
				s.replenish()
				claimed = s.claimedBin()
			}
		})
		s.cacheOps += uint64(p.Staged)
		s.as.notePop(shard, p, ok)
		if !ok {
			return false
		}
		s.cacheOps++
		score = s.aaScore(id)
	} else {
		var sc uint64
		id, sc, ok = pickRandom(s.rng, s.topo.NumAAs(), func(id aa.ID) uint64 {
			return uint64(s.aaScore(id))
		})
		if !ok {
			return false
		}
		score = uint32(sc)
	}
	s.observePick(shard, id, score, p, claimed)
	s.cacheOps += stageAhead(s.as, s.q, shard)
	s.curAA = id
	s.curValid = true
	seg := s.topo.Segment(id)
	s.cursor = seg.Start
	s.pickedScoreSum += float64(score) / float64(seg.Len())
	s.pickedCount++
	return true
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
	s.scores = aa.ScoresObs(s.scores, s.topo, s.bm, s.workers, s.pobs, s.scored)
	s.cache.Replenish(func(yield func(aa.ID, uint32)) {
		for id, sc := range s.scores {
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
		s.deltas.add(s.curAA, -1)
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
	s.deltas.add(s.topo.AAOf(v), 1)
}

// sealCPDeltas closes the open generation's ledger: it swaps with the flush
// bank — empty here, since the previous generation's fold drained it. New
// writes accumulate into the other ledger while the sealed bank waits for
// foldSealed at the generation's commit.
func (s *agnosticSpace) sealCPDeltas() {
	s.deltas, s.flushDeltas = s.flushDeltas, s.deltas
	s.q.AdvanceGen()
}

// foldSealed folds the sealed generation's delta bank into the HBPS when
// its flush commits. The HBPS stores no per-AA scores, so the current
// listed score is derived from the authoritative bitmap count minus every
// delta the cache has not seen (the open ledger — empty at depth 1, where
// the seal was a moment ago); subtracting the sealed delta from that
// gives the score the entry was listed at. Both are provably non-negative —
// a violation means ledger corruption. Updates are applied in AA order: the
// HBPS pop order breaks score ties by insertion sequence, so folding in any
// other order would change allocation decisions.
func (s *agnosticSpace) foldSealed() {
	if !s.cacheEnabled {
		s.flushDeltas.clear()
		return
	}
	if s.flushDeltas.len() == 0 {
		return
	}
	s.flushDeltas.drain(func(id aa.ID, d int64) {
		cur := int64(s.aaScore(id)) - s.deltas.get(id)
		old := cur - d
		if cur < 0 || old < 0 {
			panic(fmt.Sprintf("wafl: %s AA %d sealed delta %d implies negative score (cur %d)", s.name, id, d, cur))
		}
		s.cache.Update(id, uint32(old), uint32(cur))
		s.cacheOps++
	})
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
