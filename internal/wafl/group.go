package wafl

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/device"
	"waflfs/internal/heapcache"
	"waflfs/internal/obs"
	"waflfs/internal/raid"
	"waflfs/internal/shardq"
)

// Device abstracts the per-drive cost models in package device.
type Device interface {
	// WriteChain services one write I/O of n consecutive blocks at start.
	WriteChain(start, n uint64) time.Duration
	// Read services one read I/O of n consecutive blocks.
	Read(n uint64) time.Duration
}

// trimmer is implemented by devices that accept deallocations (SSDs).
type trimmer interface {
	Trim(start, n uint64)
}

// Group is the runtime state of one RAID group: geometry, AA topology, the
// RAID-aware AA cache, the device models, and the allocator cursor.
type Group struct {
	Index int
	Spec  GroupSpec
	// key is "rg<Index>": the group's TopAA metafile name and its label in
	// scrub rows, watchdog reports and pick provenance.
	key string

	geo  raid.Geometry
	topo *aa.Striped

	cache        *heapcache.Cache
	cacheEnabled bool
	seedOnly     bool // cache holds only a TopAA seed; background fill pending
	// scores is where bitmap walks (mount, background fill, repair) score
	// the group's AAs; the heap copies what it needs, so one buffer serves
	// every walk.
	scores []uint64

	// The pick path (allocctx.go): q stages the heap's best AAs into
	// per-shard batches — at depth 0, AllocShards ≤ 1, it is the heap's own
	// PopBest — and as holds the modeled busy vectors.
	q  *shardq.Queue[heapcache.Entry]
	as *allocState

	devices []Device // data devices, index-aligned with geometry
	parity  Device   // one model standing in for the parity device(s)
	ssds    []*device.SSD
	azcs    bool

	// Allocation cursor: the AA currently being filled, stripe-major.
	curAA     aa.ID
	curValid  bool
	curStripe uint64
	curEnd    uint64
	curWrote  bool // at least one block assigned from the current AA

	// deltas accumulates per-AA free-count changes since the last CP
	// (allocations negative, frees positive).
	deltas *deltaLedger
	// cpWrites collects the physical VBNs allocated since the last CP.
	cpWrites []block.VBN

	// Flush banks (see pipeline.go): at seal, deltas/cpWrites/pendingCS swap
	// into these while the open side keeps accumulating; the banks flush
	// and fold when the sealed generation commits — at once at depth 1, a
	// boundary later at depth 2 — and are empty in between. Remount empties
	// them.
	flushDeltas *deltaLedger
	flushWrites []block.VBN
	flushCS     []uint64

	// tb classifies the sealed writes into tetrises. It is the group's own
	// because groups flush concurrently (commitSealed fans out over them).
	tb raid.TetrisBuilder

	raidStats *raid.Stats
	rng       *rand.Rand

	// pendingCS queues out-of-band AZCS checksum-block positions (disk
	// DBNs) accrued at AA switches; they are charged after the CP's data
	// chains so device write pointers see writes in issue order.
	pendingCS []uint64

	// frag is the group's allocation-quality scan state (fragscan.go), nil
	// until its first scan.
	frag *fragSpace

	// Measurement counters.
	pickedScoreSum   float64 // sum of (score/BlocksPerAA) at AA pick time
	pickedCount      uint64
	cacheOps         uint64 // AA-cache maintenance operations
	azcsSeqWrites    uint64
	azcsRandomWrites uint64
	deviceBusy       time.Duration // busy time charged during CP flushes

	// Observability handles (nil-safe; set by Aggregate.registerGroupObs).
	// wdCursor rotates the watchdog's score-sample window across the
	// group's AAs.
	scored *obs.Counter
	pickSink
	wdCursor int
}

// buildGroup constructs the runtime for one spec at the given VBN offset.
func buildGroup(index int, spec GroupSpec, startVBN block.VBN, tun Tunables, rng *rand.Rand) *Group {
	geo := raid.Geometry{
		DataDevices:     spec.DataDevices,
		ParityDevices:   spec.ParityDevices,
		BlocksPerDevice: spec.BlocksPerDevice,
		StartVBN:        startVBN,
	}
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	stripes := spec.StripesPerAA
	if stripes == 0 {
		stripes = aa.StripesPerAA(aa.SizingParams{
			Media:            spec.Media,
			EraseBlockBlocks: spec.EraseBlockBlocks,
			ZoneBlocks:       spec.ZoneBlocks,
			AZCS:             spec.AZCS,
		})
	}
	if stripes > geo.Stripes() {
		stripes = geo.Stripes()
	}
	topo := aa.NewStriped(geo, stripes)

	g := &Group{
		Index:        index,
		Spec:         spec,
		key:          fmt.Sprintf("rg%d", index),
		geo:          geo,
		topo:         topo,
		cacheEnabled: tun.AggregateCacheEnabled,
		azcs:         spec.AZCS,
		deltas:       newDeltaLedger(topo.NumAAs()),
		flushDeltas:  newDeltaLedger(topo.NumAAs()),
		as:           newAllocState(tun),
		raidStats:    raid.NewStats(geo),
		rng:          rng,
	}
	g.buildDevices()
	if f := tun.Faults; f != nil && f.DeviceReadErrEvery > 0 {
		// Wrap every device model so each injects a recoverable media error
		// (plus its RAID-reconstruction penalty) on a per-device read
		// schedule — worker-count invariant because the counters are owned
		// by the device, not the caller.
		wrap := func(d Device) Device {
			inner, ok := d.(interface {
				WriteChain(start, n uint64) time.Duration
				Read(n uint64) time.Duration
				Stats() device.DiskStats
			})
			if !ok {
				return d
			}
			return &device.FaultyDisk{Inner: inner, Every: f.DeviceReadErrEvery, Penalty: f.DeviceReadPenalty}
		}
		for d := range g.devices {
			g.devices[d] = wrap(g.devices[d])
		}
		g.parity = wrap(g.parity)
	}

	// A fresh file system builds its cache from the (all-free) bitmap.
	g.scores = make([]uint64, topo.NumAAs())
	for id := range g.scores {
		g.scores[id] = aaBlockCount(topo, aa.ID(id))
	}
	g.cache = heapcache.NewFromScores(g.scores)
	g.q = shardq.New[heapcache.Entry](g.cache, g.as.queueDepth(g.cacheEnabled), tun.allocBatch())
	return g
}

// pendingDelta is the total pending score delta for id: the open ledger
// plus the sealed flush bank (the quantity the scrub invariant subtracts).
// Including the sealed bank keeps the scrub and watchdog invariants valid
// mid-pipeline.
func (g *Group) pendingDelta(id aa.ID) int64 {
	return g.deltas.get(id) + g.flushDeltas.get(id)
}

func (g *Group) buildDevices() {
	spec := g.Spec
	devBlocks := spec.BlocksPerDevice
	if g.azcs {
		// With AZCS the drive stores interleaved checksum blocks; round the
		// on-disk span up to whole AZCS regions so the final region's
		// checksum block is addressable.
		lastDisk := device.DataToDiskDBN(devBlocks - 1)
		devBlocks = (lastDisk/block.AZCSRegionBlocks + 1) * block.AZCSRegionBlocks
	}
	mk := func() Device {
		switch spec.Media {
		case aa.MediaSSD:
			cfg := device.DefaultSSDConfig(devBlocks)
			if spec.EraseBlockBlocks > 0 {
				cfg.FTL.PagesPerEraseBlock = spec.EraseBlockBlocks
			}
			if spec.Overprovision > 0 {
				cfg.FTL.Overprovision = spec.Overprovision
			}
			ssd := device.NewSSD(cfg)
			g.ssds = append(g.ssds, ssd)
			return ssd
		case aa.MediaSMR:
			zone := spec.ZoneBlocks
			if zone == 0 {
				zone = 16384
			}
			return device.NewSMR(devBlocks, zone)
		default:
			return device.DefaultHDD()
		}
	}
	g.devices = make([]Device, spec.DataDevices)
	for d := range g.devices {
		g.devices[d] = mk()
	}
	g.parity = mk()
	if spec.Media == aa.MediaSSD {
		// The parity model was appended to ssds by mk; parity WA is not a
		// data-path metric, so drop it from the WA census.
		g.ssds = g.ssds[:len(g.ssds)-1]
	}
}

// Geometry returns the group's RAID geometry.
func (g *Group) Geometry() raid.Geometry { return g.geo }

// Topology returns the group's AA topology.
func (g *Group) Topology() *aa.Striped { return g.topo }

// Cache returns the RAID-aware AA cache.
func (g *Group) Cache() *heapcache.Cache { return g.cache }

// RAIDStats returns the cumulative tetris accounting.
func (g *Group) RAIDStats() *raid.Stats { return g.raidStats }

// Devices returns the data-device models (for demand measurement).
func (g *Group) Devices() []Device { return g.devices }

// WriteAmplification averages the FTL write amplification across the
// group's data SSDs; it returns 0 for non-SSD groups.
func (g *Group) WriteAmplification() float64 {
	if len(g.ssds) == 0 {
		return 0
	}
	var s float64
	for _, d := range g.ssds {
		s += d.WriteAmplification()
	}
	return s / float64(len(g.ssds))
}

// eligible reports whether the allocator should write to this group given
// the fragmentation-bias threshold (§3.3.1).
func (g *Group) eligible(minFraction float64) bool {
	if !g.cacheEnabled || minFraction <= 0 {
		return true
	}
	if g.curValid {
		return true // keep filling the AA we already committed to
	}
	// The best entry may sit in a shard queue rather than the shared heap.
	e, ok := g.cache.BestWith(g.q)
	return ok && float64(e.Score) >= minFraction*float64(g.topo.BlocksPerAA())
}

// pickAA selects the next AA to fill: the cache's best when enabled,
// uniformly random otherwise (the paper's baseline). A cached pick pops the
// pick's fixed shard — seq%shards, worker-independent, and every queue
// mutation happens in pick order, so the pick stream is bit-identical at any
// worker width — then stages the shard's next batch ahead of exhaustion so
// refills hide behind ongoing picks. At queue depth 0 the pop is the heap's
// own PopBest and nothing is ever staged.
func (g *Group) pickAA(bm *bitmap.Bitmap) bool {
	var (
		e     heapcache.Entry
		p     shardq.Popped
		ok    bool
		shard int
	)
	if g.cacheEnabled {
		shard = g.as.nextShard()
		e, p, ok = g.q.Pop(shard, nil)
		if ok && p.Held && e.Score == 0 {
			// A held front with no free blocks is only the shard-local view.
			// Return every shard's stock to the shared heap and restage, so
			// an AA whose score rose since staging — or a free AA hoarded by
			// another shard — is found before the group is declared full.
			g.cache.Insert(e.ID, 0)
			g.cacheOps++
			e, p, ok = g.q.Rebalance(shard, p)
		}
		g.cacheOps += uint64(p.Staged + p.Flushed)
		// A pop straight off the shared heap was a critical section on it
		// whatever it found; a held front that turned out empty was not.
		served := ok && (e.Score > 0 || !p.Held)
		g.as.notePop(shard, p, served)
		if served {
			g.cacheOps++
		}
		if ok && e.Score == 0 {
			// Even the best AA has no free blocks: the group is full.
			g.cache.Insert(e.ID, 0)
			g.cacheOps++
			ok = false
		}
		if !ok {
			return false
		}
	} else {
		e.ID, e.Score, ok = pickRandom(g.rng, g.topo.NumAAs(), func(id aa.ID) uint64 {
			g.scored.Inc()
			return aa.Score(g.topo, bm, id)
		})
		if !ok {
			return false
		}
	}
	g.observePick(bm, shard, e, p)
	g.cacheOps += stageAhead(g.as, g.q, shard)
	g.curAA = e.ID
	g.curValid = true
	g.curWrote = false
	g.curStripe, g.curEnd = g.topo.StripeRange(e.ID)
	g.pickedScoreSum += float64(e.Score) / float64(aaBlockCount(g.topo, e.ID))
	g.pickedCount++
	return true
}

// pickRandom is the paper's baseline pick: a bounded number of uniformly
// random probes for an AA with any free space, then a linear sweep from a
// random start.
func pickRandom(rng *rand.Rand, n int, score func(aa.ID) uint64) (aa.ID, uint64, bool) {
	for try := 0; try < 16; try++ {
		id := aa.ID(rng.Intn(n))
		if s := score(id); s > 0 {
			return id, s, true
		}
	}
	start := rng.Intn(n)
	for off := 0; off < n; off++ {
		id := aa.ID((start + off) % n)
		if s := score(id); s > 0 {
			return id, s, true
		}
	}
	return 0, 0, false
}

// aaBlockCount returns the capacity of AA id, accounting for a truncated
// final AA.
func aaBlockCount(t *aa.Striped, id aa.ID) uint64 { return aa.Capacity(t, id) }

// finishAA returns the drained AA to the cache with its current score.
func (g *Group) finishAA(bm *bitmap.Bitmap) {
	if !g.curValid {
		return
	}
	if g.azcs && g.curWrote {
		g.queueAZCSBoundaries(g.curAA)
	}
	if g.cacheEnabled {
		g.cache.Insert(g.curAA, aa.Score(g.topo, bm, g.curAA))
		g.scored.Inc()
		g.cacheOps++
		g.deltas.delete(g.curAA)      // the fresh score already reflects them
		g.flushDeltas.delete(g.curAA) // ditto for a sealed delta mid-pipeline
	}
	g.curValid = false
}

// allocateTetris appends to dst up to max free physical VBNs from the next
// tetris of the current AA, stripe-major (stripe by stripe across devices,
// which yields full stripes and per-device chains), and returns the extended
// slice; nothing appended with more==false means the group is exhausted for
// now.
func (g *Group) allocateTetris(bm *bitmap.Bitmap, dst []block.VBN, max int) (out []block.VBN, more bool) {
	if max <= 0 {
		return dst, true
	}
	for !g.curValid {
		if !g.pickAA(bm) {
			return dst, false
		}
	}
	// One tetris: up to StripesPerTetris stripes from the cursor.
	end := g.curStripe + block.StripesPerTetris
	if end > g.curEnd {
		end = g.curEnd
	}
	out, stop := dst, len(dst)+max
	for s := g.curStripe; s < end && len(out) < stop; s++ {
		for d := 0; d < g.geo.DataDevices; d++ {
			if len(out) >= stop {
				// Mid-stripe stop: resume at this stripe next call.
				end = s
				break
			}
			v := g.geo.VBNOf(d, s)
			if bm.Set(v) {
				out = append(out, v)
				g.deltas.add(g.curAA, -1)
			}
		}
	}
	g.curStripe = end
	if len(out) > len(dst) {
		g.curWrote = true
	}
	if g.curStripe >= g.curEnd {
		g.finishAA(bm)
	}
	g.cpWrites = append(g.cpWrites, out[len(dst):]...)
	return out, true
}

// unwrite takes v, freed before the seal of the generation that allocated
// it, back out of the open write set (see Aggregate.fresh).
func (g *Group) unwrite(v block.VBN) {
	i := slices.Index(g.cpWrites, v)
	if i < 0 {
		panic(fmt.Sprintf("wafl: fresh physical %v is not in the open write set", v))
	}
	g.cpWrites = slices.Delete(g.cpWrites, i, i+1)
}

// free returns a physical VBN in this group to the free pool.
func (g *Group) free(bm *bitmap.Bitmap, v block.VBN, trim bool) {
	if !bm.Clear(v) {
		panic(fmt.Sprintf("wafl: double free of physical %v", v))
	}
	g.deltas.add(g.topo.AAOf(v), 1)
	if trim {
		d, dbn := g.geo.Locate(v)
		if g.azcs {
			dbn = device.DataToDiskDBN(dbn)
		}
		if tr, ok := g.devices[d].(trimmer); ok {
			tr.Trim(dbn, 1)
		}
	}
}

// sealCP closes the open generation: the delta ledger, the write set, and
// the queued AZCS checksum positions swap with the flush banks. The banks are
// empty here — the previous generation's flush drained them — so the swap
// hands the open side their retained capacity instead of reallocating it
// every CP.
func (g *Group) sealCP() {
	g.deltas, g.flushDeltas = g.flushDeltas, g.deltas
	g.cpWrites, g.flushWrites = g.flushWrites[:0], g.cpWrites
	g.pendingCS, g.flushCS = g.flushCS[:0], g.pendingCS
	// Held shard batches carry the generation they were staged under, which
	// the depth-2 watchdog pins against the current one.
	g.q.AdvanceGen()
}

// flushSealed classifies the sealed generation's writes into tetrises,
// charges the device models (data chains first, then any queued out-of-band
// AZCS checksum writes), and returns the time the flush kept the group's
// devices busy.
func (g *Group) flushSealed() time.Duration {
	if len(g.flushWrites) == 0 && len(g.flushCS) == 0 {
		return 0
	}
	var busy time.Duration
	tetrises := g.tb.Build(g.geo, g.flushWrites)
	g.flushWrites = g.flushWrites[:0]
	for i := range tetrises {
		t := &tetrises[i]
		g.raidStats.Add(t)
		for _, c := range t.Chains {
			busy += g.chargeChain(c)
		}
		// Parity devices rewrite one block per touched stripe; for
		// AA-directed writes these are contiguous runs.
		if g.geo.ParityDevices > 0 && t.StripesTouched > 0 {
			busy += g.parity.WriteChain(t.Tetris*block.StripesPerTetris, uint64(t.ParityWriteBlocks))
			if t.ParityReadBlocks > 0 {
				busy += g.parity.Read(uint64(t.ParityReadBlocks))
			}
		}
	}
	for _, cs := range g.flushCS {
		for d := range g.devices {
			g.azcsRandomWrites++
			busy += g.devices[d].WriteChain(cs, 1)
		}
	}
	g.flushCS = g.flushCS[:0]
	g.deviceBusy += busy
	return busy
}

// chargeChain costs one data-device write chain. Under AZCS the chain is
// mapped to its on-disk span, which naturally includes the interior
// checksum blocks: they are written as part of the sequential sweep
// (§3.2.4). Partial regions at the *ends* of the chain are not charged
// here — within an AA the next chain continues where this one stopped, so
// the straddled region's checksum block still goes out sequentially once
// the region completes. The nonsequential checksum writes the paper warns
// about arise at AA boundaries and are charged by chargeAZCSBoundaries.
func (g *Group) chargeChain(c raid.Chain) time.Duration {
	dev := g.devices[c.Device]
	if !g.azcs {
		return dev.WriteChain(c.Start, c.Len)
	}
	diskStart := device.DataToDiskDBN(c.Start)
	diskEnd := device.DataToDiskDBN(c.Start + c.Len - 1)
	diskLen := diskEnd - diskStart + 1
	g.azcsSeqWrites += diskLen - c.Len // interior checksum blocks swept
	return dev.WriteChain(diskStart, diskLen)
}

// queueAZCSBoundaries records the out-of-band checksum-block updates an AA
// switch causes when the AA's on-disk span does not start and end on AZCS
// region boundaries (§3.2.4, Fig. 4 B vs C): the straddled regions' data is
// split across AAs written at different times, so their shared checksum
// block must be updated with a separate random write. The writes are issued
// by flushSealed after the CP's data chains.
func (g *Group) queueAZCSBoundaries(id aa.ID) {
	from, to := g.topo.StripeRange(id)
	if to == from {
		return
	}
	diskStart := device.DataToDiskDBN(from)
	diskEnd := device.DataToDiskDBN(to-1) + 1
	if diskStart%block.AZCSRegionBlocks != 0 {
		g.pendingCS = append(g.pendingCS,
			diskStart/block.AZCSRegionBlocks*block.AZCSRegionBlocks+block.AZCSRegionDataBlocks)
	}
	if diskEnd%block.AZCSRegionBlocks != 0 {
		g.pendingCS = append(g.pendingCS,
			diskEnd/block.AZCSRegionBlocks*block.AZCSRegionBlocks+block.AZCSRegionDataBlocks)
	}
}

// foldSealed folds the sealed generation's batched score changes into the
// AA cache when its flush commits (§3.3). Deltas the fold cannot apply yet —
// the allocator's in-flight AA, or an AA a seed-only cache does not track —
// merge back into the open ledger, so finishAA / the background fill settle
// them.
func (g *Group) foldSealed() {
	if !g.cacheEnabled {
		g.flushDeltas.clear()
		return
	}
	if g.flushDeltas.len() == 0 {
		return
	}
	// AA order keeps the heap's tie-break (insertion sequence) — and hence
	// pick order — identical run to run.
	g.flushDeltas.drain(func(id aa.ID, d int64) {
		if (g.curValid && id == g.curAA) || !g.cache.Tracked(id) {
			g.deltas.add(id, d)
			return
		}
		s := int64(g.cache.Score(id)) + d
		if s < 0 {
			s = 0
		}
		g.cache.Update(id, uint64(s))
		g.cacheOps++
	})
}

// GroupMetrics is a snapshot of the measurement counters.
type GroupMetrics struct {
	PickedScoreFraction float64 // mean free fraction of AAs at pick time
	CacheOps            uint64
	AZCSSequential      uint64
	AZCSRandom          uint64
	DeviceBusy          time.Duration
	WriteAmplification  float64
}

// Metrics returns the group's measurement counters.
func (g *Group) Metrics() GroupMetrics {
	m := GroupMetrics{
		CacheOps:           g.cacheOps,
		AZCSSequential:     g.azcsSeqWrites,
		AZCSRandom:         g.azcsRandomWrites,
		DeviceBusy:         g.deviceBusy,
		WriteAmplification: g.WriteAmplification(),
	}
	if g.pickedCount > 0 {
		m.PickedScoreFraction = g.pickedScoreSum / float64(g.pickedCount)
	}
	return m
}

// ResetMetrics zeroes the measurement counters (used between the aging and
// measurement phases of an experiment).
func (g *Group) ResetMetrics() {
	g.pickedScoreSum, g.pickedCount = 0, 0
	g.cacheOps = 0
	g.azcsSeqWrites, g.azcsRandomWrites = 0, 0
	g.deviceBusy = 0
	g.as.resetCounters()
}

// FTLTotals sums FTL accounting across the group's SSD data devices.
func (g *Group) FTLTotals() device.FTLStats {
	var t device.FTLStats
	for _, d := range g.ssds {
		st := d.FTL.Stats()
		t.HostWrites += st.HostWrites
		t.NANDWrites += st.NANDWrites
		t.Relocated += st.Relocated
		t.Erases += st.Erases
		t.Trims += st.Trims
	}
	return t
}
