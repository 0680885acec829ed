package wafl

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/faultinject"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/parallel"
)

// The consistency-point engine. There is one CP, made of six stages:
//
//	alloc     dirty blocks get their dual VBNs, old versions are freed (COW)
//	reclaim   queued delayed frees are applied, most-pending-AA-first
//	seal      the open banks (delta ledgers, write sets, AZCS queues, pool
//	          blocks) swap into the flush banks
//	flush     the sealed banks commit: tetris flush, delta fold, TopAA,
//	          bitmap write-back (Aggregate.commitSealed)
//	attribute the committed generation's cost feeds the write-side latency
//	          SLI, per-stage attribution and op traces (attributeWrites)
//	tail      watchdogs, live snapshot, fragscan, tsdb, SLO, control
//
// and two depths (Tunables.Pipeline), which differ only in WHICH generation
// a boundary flushes. At depth 1 — the stop-the-world CP — a boundary seals
// what it just allocated and flushes it. At depth 2 a boundary flushes the
// generation sealed at the PREVIOUS boundary while (on the modeled clock)
// its own allocation runs, the way production WAFL never stops the world:
// the boundary's wall is max(alloc, flush) instead of their sum, and the
// last generation stays in flight until the next boundary or Drain.
//
// Every measured counter stays worker-count invariant; only the modeled
// walls (alloc via parallel.Makespan, flush via CPStats.FlushWall) vary
// with Tunables.Workers. Callers reading artifacts of a depth-2 system
// (snapshots, refcount checks, benches, remounts) must Drain() first.

// writeCand is a pending write-trace candidate, carried from a generation's
// alloc stage to its flush. The blocks a volume commits in one CP share one
// modeled latency, so one candidate per (volume, CP) stands for the batch.
type writeCand struct {
	armed        bool // the volume is tracing and wrote in this generation
	id, seq      uint64
	sampled      bool
	stalls0      uint64
	replenishes0 uint64
	stallBusy0   time.Duration
	refillBusy0  time.Duration
}

// cpGen is what the alloc stage records about a generation so that its
// flush — one boundary later at depth 2 — can attribute latency and traces
// to the CP the writes belong to. volBlocks and cands are indexed by
// FlexVol.index and cover the volumes that existed when the generation was
// allocated.
type cpGen struct {
	volBlocks   []uint64
	totalBlocks uint64
	cands       []writeCand
	// traced counts the cands in use (writeCand.armed).
	traced int
	// allocScan/allocCache are the CPU charges of the alloc stage, carried
	// so the flush-time latency SLI covers the whole generation cost.
	allocScan  time.Duration
	allocCache time.Duration
}

// reset empties the record for a generation over nvols volumes, keeping its
// storage.
func (gen *cpGen) reset(nvols int) {
	volBlocks, cands := gen.volBlocks[:0], gen.cands[:0]
	*gen = cpGen{
		volBlocks: append(volBlocks, make([]uint64, nvols)...),
		cands:     append(cands, make([]writeCand, nvols)...),
	}
}

// blocks returns how many blocks volume v wrote in the generation.
func (gen *cpGen) blocks(v *FlexVol) uint64 {
	if v.index < len(gen.volBlocks) {
		return gen.volBlocks[v.index]
	}
	return 0 // the volume was added after the generation was allocated
}

// cpPipeline is the System's sealed-generation state plus the
// cp.pipeline.* accumulators, which only depth 2 advances.
type cpPipeline struct {
	inFlight bool
	// gen is the sealed generation's record; open is the one the alloc stage
	// fills. The seal swaps them, like every other bank, so the two records
	// alive at depth 2 reuse each other's storage CP after CP.
	gen, open *cpGen
	// volBusy is allocWall's scratch.
	volBusy []time.Duration

	// generations counts sealed generations (worker-invariant).
	generations uint64
	// Wall accumulators (worker-sensitive, exported as volatile metrics):
	// serialWall is what a stop-the-world schedule would have cost
	// (alloc + flush per generation), pipedWall what the overlap costs
	// (max per generation). Their ratio is the overlap gain.
	allocWall  time.Duration
	flushWall  time.Duration
	pipedWall  time.Duration
	serialWall time.Duration
}

// PipelineStats is a snapshot of the pipelined-CP accounting.
type PipelineStats struct {
	// Generations counts sealed generations.
	Generations uint64
	// AllocWall/FlushWall are the summed per-generation modeled walls.
	AllocWall time.Duration
	FlushWall time.Duration
	// PipelinedWall is Σ max(alloc, flush) — the modeled sustained-write
	// wall with the overlap. SerialWall is Σ (alloc + flush) — what the
	// stop-the-world schedule would have cost.
	PipelinedWall time.Duration
	SerialWall    time.Duration
}

// OverlapGain returns SerialWall / PipelinedWall (0 when nothing ran):
// ≥ 1 always, 2 at perfect alloc/flush balance.
func (p PipelineStats) OverlapGain() float64 {
	if p.PipelinedWall == 0 {
		return 0
	}
	return float64(p.SerialWall) / float64(p.PipelinedWall)
}

// PipelineStats returns the pipelined-CP accounting (zero at depth 1).
func (s *System) PipelineStats() PipelineStats {
	return PipelineStats{
		Generations:   s.pipe.generations,
		AllocWall:     s.pipe.allocWall,
		FlushWall:     s.pipe.flushWall,
		PipelinedWall: s.pipe.pipedWall,
		SerialWall:    s.pipe.serialWall,
	}
}

// InFlight reports whether a sealed generation is still awaiting its flush
// (Drain commits it). Always false between depth-1 boundaries.
func (s *System) InFlight() bool { return s.pipe.inFlight }

// atBoundary reports whether the system is quiesced: no dirty blocks
// buffered and no sealed generation awaiting its flush. Operations that
// mutate block ownership outside a CP (snapshots, punches, tiering,
// cleaning, demotion) require it — with a generation in flight their score
// changes would race the sealed delta bank.
func (s *System) atBoundary() bool { return s.pendingBlocks == 0 && !s.pipe.inFlight }

// CP runs one consistency-point boundary: dirty blocks get their dual VBNs
// (virtual from each volume's HBPS-guided allocator, physical from the
// tetris round-robin over RAID groups), previous block versions are freed
// (COW), tetrises are flushed, caches updated, metafiles written back. It
// returns the CPStats of the generation that COMMITTED at this boundary: at
// depth 1 the one just written, at depth 2 the one sealed a boundary ago —
// zero at the first boundary, when nothing was in flight.
func (s *System) CP() CPStats {
	overlap := s.pipe.inFlight // depth 2 only: depth 1 never leaves a generation behind
	s.Agg.cpOrd = s.c.CPs + 1  // provenance records carry the CP being built
	phase := faultinject.PhaseAlloc
	if overlap {
		s.Agg.cpOrd++ // the in-flight generation commits first
		phase = faultinject.PhaseOverlapAlloc
	}
	s.Agg.faults.BeginCP()
	s.Agg.faults.EnterPhase(phase)
	gen := s.allocGeneration()

	if !s.tun.Pipeline {
		// Depth 1: reclaim into the open banks, then seal and flush the
		// generation just allocated. Reclaim draws from the long-lived open
		// queue — routing it through the sealed queue would re-insert AAs in
		// sorted order and change which ones a finite budget reaches.
		s.Agg.faults.EnterPhase(faultinject.PhaseDelayedFree)
		s.reclaimDelayed(false)
		s.sealGeneration()
		st := s.flushGeneration()
		s.cpWall += st.FlushWall
		s.tail()
		return st
	}

	// Depth 2: commit the generation sealed a boundary ago while (logically)
	// the allocation above was running, then seal the new one behind it. The
	// sealed delayed-free queue absorbs the open one, including whatever the
	// budget left behind.
	var st CPStats
	if overlap {
		st = s.commitInFlight()
	}
	for _, v := range s.Agg.vols {
		if sp := v.space; sp.delayed != nil {
			if sp.delayedSealed == nil {
				sp.delayedSealed = newDelayedFrees(sp.topo.NumAAs())
			}
			sp.delayedSealed.absorb(sp.delayed)
		}
	}
	s.sealGeneration()
	s.pipe.generations++
	s.chargeOverlap(s.allocWall(gen), st.FlushWall)
	if overlap {
		s.tail()
	}
	return st
}

// Drain commits the in-flight generation of a depth-2 System, with no new
// allocation to overlap it — a quiesce point. No-op (zero CPStats) when
// nothing is in flight, which at depth 1 is always. Callers must Drain
// before reading artifacts that assume all CPs have committed: snapshots at
// a boundary, refcount checks, bench counters, remounts.
func (s *System) Drain() CPStats {
	if !s.pipe.inFlight {
		return CPStats{}
	}
	s.Agg.cpOrd = s.c.CPs + 1
	s.Agg.faults.BeginCP()
	st := s.commitInFlight()
	s.chargeOverlap(0, st.FlushWall)
	s.tail()
	return st
}

// commitInFlight is the depth-2 flush of the generation sealed a boundary
// ago: its delayed frees reclaim into the sealed banks, which then commit.
func (s *System) commitInFlight() CPStats {
	s.Agg.faults.EnterPhase(faultinject.PhaseOverlapFlush)
	s.reclaimDelayed(true)
	return s.flushGeneration()
}

// chargeOverlap books one depth-2 boundary's modeled wall: max(alloc,
// flush), not their sum — the overlap win the cp.pipeline.* metrics expose.
func (s *System) chargeOverlap(allocWall, flushWall time.Duration) {
	wall := max(allocWall, flushWall)
	s.cpWall += wall
	s.pipe.allocWall += allocWall
	s.pipe.flushWall += flushWall
	s.pipe.pipedWall += wall
	s.pipe.serialWall += allocWall + flushWall
}

// allocWall is the modeled wall-clock of a generation's alloc stage: each
// volume's allocation work (its blocks at the base per-op cost) is
// volume-local, so it fans out over the work pool the way the flush fans
// out over groups.
func (s *System) allocWall(gen *cpGen) time.Duration {
	volBusy := s.pipe.volBusy[:0]
	for _, n := range gen.volBlocks {
		if n > 0 {
			volBusy = append(volBusy, time.Duration(n)*CPUBasePerOp)
		}
	}
	s.pipe.volBusy = volBusy
	return parallel.Makespan(volBusy, s.Agg.workers())
}

// allocGeneration is the alloc stage: write allocation + COW frees, volume
// by volume, into the open banks. Its CPU (virtual-bitmap sweep, cache
// picks) is charged here and carried in the returned record (the open one,
// which the seal stage makes the sealed one).
func (s *System) allocGeneration() *cpGen {
	cacheOpsBefore := s.cacheOps()
	scanBefore := s.virtScanBlocks()
	// LUNs allocate in (volume, LUN) name order, whatever order they were
	// first written in: the order VBNs are handed out decides every
	// downstream read and free.
	slices.SortFunc(s.dirtyLUNs, func(a, b *LUN) int {
		return cmp.Or(cmp.Compare(a.vol.rank, b.vol.rank), cmp.Compare(a.rank, b.rank))
	})
	gen := s.pipe.open
	gen.reset(len(s.Agg.vols))
	for _, l := range s.dirtyLUNs {
		n := l.dirty.Len()
		vol := l.vol
		// Op tracing: Begin draws the volume's deterministic write sequence
		// number before its first allocation; while the volume allocates,
		// the sampled trace ID rides along in curTID so its pick-provenance
		// records cross-reference the trace.
		if sp := vol.space; sp.tr != nil {
			if c := &gen.cands[vol.index]; !c.armed {
				id, seq, smp := sp.tr.Begin(optrace.KindWrite)
				*c = writeCand{
					armed: true, id: id, seq: seq, sampled: smp,
					stalls0: sp.as.stalls, replenishes0: sp.replenishes,
					stallBusy0: sp.as.stallBusy, refillBusy0: sp.as.refillBusy,
				}
				gen.traced++
				if smp {
					sp.curTID = id
				}
			}
		}
		gen.volBlocks[vol.index] += uint64(n)
		gen.totalBlocks += uint64(n)
		virt := vol.space.allocate(s.virtBuf[:0], n)
		var phys []block.VBN
		if s.tun.FlashPool {
			phys = s.Agg.AllocatePhysicalPreferring(s.physBuf[:0], aa.MediaSSD, n)
		} else {
			phys = s.Agg.AllocatePhysical(s.physBuf[:0], n)
		}
		s.virtBuf, s.physBuf = virt, phys
		if len(virt) < n {
			panic(fmt.Sprintf("wafl: volume %q out of virtual space", vol.Name))
		}
		if len(phys) < n {
			panic("wafl: aggregate out of physical space")
		}
		// Blocks take their VBNs in ascending LBA order, in two passes: the
		// pointer swaps first, alone in a loop short enough that the core
		// has the next blocks' cache misses in flight while it finishes this
		// one's, then the COW drops, in the same order: the old pointer goes
		// into the newest snapshot's delta if that snapshot still holds it
		// (an unwritten one as the unwritten marker), else the pair is freed.
		if cap(s.lbaBuf) < n {
			s.lbaBuf, s.oldBuf = make([]uint64, n), make([]blockPtr, n)
		}
		lbas, olds := s.lbaBuf[:n], s.oldBuf[:n]
		i := 0
		l.dirty.Drain(func(lba uint64) {
			lbas[i] = lba
			olds[i], l.blocks[lba] = l.blocks[lba], blockPtr{virt: virt[i], phys: phys[i]}
			i++
		})
		for j, old := range olds[:i] {
			s.dropActive(l, lbas[j], old)
		}
		vol.live += i
		if i != n {
			panic(fmt.Sprintf("wafl: LUN %q drained %d dirty blocks, counted %d", l.Name, i, n))
		}
		s.c.BlocksWritten += uint64(n)
	}
	s.dirtyLUNs = s.dirtyLUNs[:0]
	s.pendingBlocks = 0
	s.opsSinceCP = 0
	if gen.traced > 0 {
		for _, v := range s.Agg.vols {
			v.space.curTID = 0
		}
	}
	gen.allocScan = time.Duration(s.virtScanBlocks()-scanBefore) * CPUPerVirtAllocScan
	gen.allocCache = time.Duration(s.cacheOps()-cacheOpsBefore) * CPUPerCacheOp
	s.c.CPUTime += gen.allocScan + gen.allocCache
	s.c.CacheCPUTime += gen.allocCache
	return gen
}

// reclaimDelayed is the reclaim stage: every volume applies queued delayed
// frees under the per-CP budget — from the open queue into the open banks
// (depth 1, before the seal), or from the sealed queue into the sealed
// banks (depth 2: the frees belong to the committing generation).
func (s *System) reclaimDelayed(sealed bool) {
	for _, v := range s.Agg.vols {
		v.space.reclaimDelayedFrees(sealed, s.tun.DelayedFreeBudgetPerCP)
	}
}

// sealGeneration is the seal stage: every open bank swaps into its flush
// bank — group and space delta ledgers, write sets, AZCS queues, the pool's
// tiered-block count, the generation record.
func (s *System) sealGeneration() {
	for _, g := range s.Agg.groups {
		g.sealCP()
	}
	for _, sp := range s.Agg.agnosticSpaces() {
		sp.sealCPDeltas()
	}
	if p := s.Agg.pool; p != nil {
		p.flushBlocks += p.cpBlocks
		p.cpBlocks = 0
	}
	if s.Agg.fresh.Len() > 0 {
		s.Agg.fresh.Clear()
	}
	s.pipe.gen, s.pipe.open = s.pipe.open, s.pipe.gen
	s.pipe.inFlight = true
}

// flushGeneration is the flush stage: the sealed banks commit, the System
// counters absorb the commit's cost, and the generation's latency SLI and
// write traces are attributed from the metadata captured at alloc plus the
// costs measured here.
func (s *System) flushGeneration() CPStats {
	gen := s.pipe.gen
	// When traces are pending, snapshot per-group device busy so their
	// flush-time deltas can become device leaf spans.
	var gBusy []time.Duration
	if gen.traced > 0 {
		gBusy = make([]time.Duration, len(s.Agg.groups))
		for i, g := range s.Agg.groups {
			gBusy[i] = g.deviceBusy
		}
	}
	cacheOpsBefore := s.cacheOps()
	st := s.Agg.commitSealed()
	s.c.CPs++
	s.c.DeviceBusy += st.DeviceBusy
	pages := uint64(st.MetafilePagesAggregate + st.MetafilePagesVols)
	s.c.MetafilePages += pages
	s.c.TopAABlocks += uint64(st.TopAABlocks)
	metaNS := time.Duration(pages) * CPUPerMetafilePage
	foldCache := time.Duration(s.cacheOps()-cacheOpsBefore) * CPUPerCacheOp
	s.c.CPUTime += metaNS + foldCache
	s.c.CacheCPUTime += foldCache
	s.attributeWrites(gen, st.DeviceBusy, metaNS, foldCache, gBusy)
	s.pipe.inFlight = false
	return st
}

// tail runs once per COMMITTED generation, so the per-CP streams stay one
// sample per CP ordinal: it stamps the worker-invariant modeled clock, then
// samples the per-CP series and evaluates the SLO and control portfolios.
func (s *System) tail() {
	tot := s.c.DeviceBusy + s.c.CPUTime
	s.runWatchdogs()
	if l := s.Agg.obsOpts.Live; l != nil { // guard: don't snapshot when unused
		l.Publish(s.Agg.obsOpts.Name, s.Agg.reg.Snapshot())
	}
	s.maybeFragScan(tot)
	if ts := s.Agg.obsOpts.TSDB; ts != nil {
		// Sample every registered metric into the per-CP time-series ring,
		// stamped with the worker-invariant modeled clock. StableSnapshot
		// excludes volatile metrics, so the stored series are byte-identical
		// across worker widths.
		ts.Sample(s.Agg.obsOpts.Name, s.c.CPs, tot, s.Agg.reg.StableSnapshot())
	}
	if e := s.Agg.sloEng; e != nil {
		// Evaluate the SLO portfolio against the series sampled above. The
		// alert state for this CP lands in the store immediately; the
		// slo.* scalar counters appear in live snapshots at the next CP.
		e.Evaluate(s.c.CPs, tot)
	}
	if c := s.Agg.ctl; c != nil {
		// Close the loop: the controller reads the series sampled above
		// (including the alert states the SLO engine just wrote) and
		// actuates knobs that take effect from the next CP on. Inputs and
		// knob trajectory are worker-invariant, so the actuation stream is
		// byte-identical at any worker width.
		c.Evaluate(s.c.CPs, tot)
	}
}
