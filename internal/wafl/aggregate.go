package wafl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/control"
	"waflfs/internal/faultinject"
	"waflfs/internal/obs"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/picks"
	"waflfs/internal/obs/slo"
	"waflfs/internal/ordset"
	"waflfs/internal/parallel"
	"waflfs/internal/topaa"
)

// Aggregate is the shared pool of physical storage hosting FlexVol volumes
// (§2.1): a flat physical VBN space carved into RAID groups, each with its
// own RAID-aware AA cache, plus the TopAA metafile store.
type Aggregate struct {
	bm     *bitmap.Bitmap
	groups []*Group
	vols   []*FlexVol
	pool   *Pool
	// spaces indexes every RAID-agnostic space: the volumes' in creation
	// order, then the pool's (agnosticSpaces).
	spaces []*agnosticSpace
	store  *topaa.Store
	tun    Tunables
	rng    *rand.Rand
	faults *faultinject.Injector // nil-safe; set when Tunables.Faults is armed

	nextRR int // round-robin start position over groups

	// fresh holds the group VBNs that a boundary operation — the cleaner,
	// Demote — allocated since the last seal. Their writes wait in the
	// group's open write set like a CP's, but a punch, a snapshot delete or
	// restore, a later relocation or the next CP's COW drops can free them
	// first; FreePhysical then takes the write back out of the set, so a VBN
	// the allocator hands out again is not written twice. TierOut's pool
	// blocks are only counted, so none can be written twice, and one freed
	// before the seal still ships with its object. Empty, and never looked
	// into, on every other path.
	fresh ordset.Bits

	// Observability (see obs.go). reg always exists; st is nil unless a
	// tracer was configured.
	reg       *obs.Registry
	st        *obs.SysTracer
	obsOpts   ObsOptions
	pobs      *parallel.Obs
	scoredAAs *obs.Counter
	cpTot     cpTotals
	mountTot  mountTotals
	scrubTot  scrubTotals
	// cpOrd is the ordinal the generation being allocated will commit as
	// (set by System.CP); pick-provenance records carry it.
	cpOrd uint64
	// pickRings collects every provenance ring this aggregate's spaces
	// record into, in registration order, for the picks.* metric views.
	pickRings []*picks.Ring
	// otRings likewise collects every op-trace ring (one per volume) for
	// the optrace.* metric views.
	otRings []*optrace.Ring
	// wd is the online-watchdog state (watchdog.go). The counters always
	// exist; the monitors run only when ObsOptions.Watchdogs is set.
	wd watchdogState
	// sloEng evaluates the configured SLO portfolio against the tsdb
	// series at every CP boundary (nil unless both ObsOptions.SLO and
	// ObsOptions.TSDB are armed; all uses are nil-safe).
	sloEng *slo.Engine
	// ctl is the closed-loop controller, evaluated right after sloEng in
	// the CP tail (nil unless both ObsOptions.Control and ObsOptions.TSDB
	// are armed; all uses are nil-safe). Armed from NewSystem — the knob
	// surface it actuates belongs to the System.
	ctl *control.Engine
}

// NewAggregate builds an aggregate from RAID-group specs. The seed makes
// every run reproducible.
func NewAggregate(specs []GroupSpec, tun Tunables, seed int64) *Aggregate {
	if len(specs) == 0 {
		panic("wafl: aggregate needs at least one RAID group")
	}
	tun = tun.Defaults()
	rng := rand.New(rand.NewSource(seed))
	ag := &Aggregate{store: topaa.NewStore(), tun: tun, rng: rng}
	if tun.Faults != nil {
		ag.faults = faultinject.New(*tun.Faults)
		ag.store.SetInjector(ag.faults)
	}
	var next block.VBN
	for i, spec := range specs {
		g := buildGroup(i, spec, next, tun, rng)
		ag.groups = append(ag.groups, g)
		next = g.geo.VBNRange().End
	}
	ag.bm = bitmap.New(uint64(next))
	ag.initObs()
	for _, g := range ag.groups {
		ag.registerGroupObs(g)
	}
	return ag
}

// Tunables returns the active configuration.
func (ag *Aggregate) Tunables() Tunables { return ag.tun }

// Groups returns the RAID groups.
func (ag *Aggregate) Groups() []*Group { return ag.groups }

// Vols returns the hosted FlexVol volumes.
func (ag *Aggregate) Vols() []*FlexVol { return ag.vols }

// Bitmap exposes the aggregate's physical bitmap metafile.
func (ag *Aggregate) Bitmap() *bitmap.Bitmap { return ag.bm }

// Store exposes the TopAA metafile store.
func (ag *Aggregate) Store() *topaa.Store { return ag.store }

// Injector exposes the fault injector (nil when no plan is armed). Nil is
// safe to call: every Injector method is a no-op on a nil receiver.
func (ag *Aggregate) Injector() *faultinject.Injector { return ag.faults }

// ApplyPlannedDamage places the armed plan's media fault on the TopAA
// metafile store — the damage a dirty failover leaves behind — and returns
// what was damaged. A plan without a media-fault kind (or no plan at all)
// does nothing.
func (ag *Aggregate) ApplyPlannedDamage() (faultinject.DamageReport, error) {
	if ag.faults == nil {
		return faultinject.DamageReport{}, nil
	}
	return ag.faults.ApplyDamage(ag.store, ag.store.Keys(), block.ChunksPerBlock)
}

// Blocks returns the physical VBN space size.
func (ag *Aggregate) Blocks() uint64 { return ag.bm.Size() }

// UsedFraction returns the fraction of physical blocks allocated.
func (ag *Aggregate) UsedFraction() float64 {
	return float64(ag.bm.Used()) / float64(ag.bm.Size())
}

// AddGroup grows the aggregate by one RAID group at the top of the physical
// VBN space — how customers add capacity over time (§4.2). The new group's
// AA cache starts fully populated (every AA empty), so the write allocator
// immediately prefers its pristine regions.
func (ag *Aggregate) AddGroup(spec GroupSpec) *Group {
	if ag.pool != nil {
		panic("wafl: add RAID groups before attaching the object pool")
	}
	start := block.VBN(ag.bm.Size())
	g := buildGroup(len(ag.groups), spec, start, ag.tun, ag.rng)
	ag.groups = append(ag.groups, g)
	ag.bm.Grow(uint64(g.geo.VBNRange().End))
	ag.registerGroupObs(g)
	return g
}

// AddVolume creates and hosts a FlexVol. Thin provisioning applies: the sum
// of volume sizes may exceed physical capacity (§3.3.2).
func (ag *Aggregate) AddVolume(spec VolSpec) *FlexVol {
	for _, v := range ag.vols {
		if v.Name == spec.Name {
			panic(fmt.Sprintf("wafl: duplicate volume %q", spec.Name))
		}
	}
	v := newFlexVol(len(ag.vols), spec, ag.tun, ag.rng)
	for _, o := range ag.vols { // take the name's place in rank order

		if o.Name < v.Name {
			v.rank++
		} else {
			o.rank++
		}
	}
	ag.vols = append(ag.vols, v)
	ag.spaces = slices.Insert(ag.spaces, len(ag.vols)-1, v.space) // before the pool
	ag.registerSpaceObs(v.space, "vol."+v.Name, v.index)
	return v
}

// agnosticSpaces returns every RAID-agnostic space — the volumes' in
// creation order, then the pool's — each named by its TopAA metafile key.
// The slice is the aggregate's own index, kept by AddVolume and
// AddObjectPool, so walking it at every CP allocates nothing.
func (ag *Aggregate) agnosticSpaces() []*agnosticSpace { return ag.spaces }

// groupOf returns the RAID group owning physical VBN v.
func (ag *Aggregate) groupOf(v block.VBN) *Group {
	for _, g := range ag.groups {
		if g.geo.VBNRange().Contains(v) {
			return g
		}
	}
	panic(fmt.Sprintf("wafl: physical %v outside aggregate", v))
}

// AllocatePhysical assigns n free physical VBNs. Allocation proceeds in
// tetris-sized turns round-robin over the eligible RAID groups, so that
// writes reach all groups (maximizing bandwidth, §3.3.1) while groups whose
// best AA is heavily fragmented contribute fewer blocks per turn — the
// write bias of §4.2. The VBNs are appended to dst; fewer than n are appended
// only when the aggregate is out of space.
func (ag *Aggregate) AllocatePhysical(dst []block.VBN, n int) []block.VBN {
	out, stop := dst, len(dst)+n
	useThreshold := true
	for len(out) < stop {
		// A round may legitimately yield zero blocks (a heavily fragmented
		// AA can have tetrises with no free blocks at all); the aggregate
		// is only exhausted when every group reports it cannot proceed.
		anyAlive := false
		skipped := false
		for i := range ag.groups {
			g := ag.groups[(ag.nextRR+i)%len(ag.groups)]
			if useThreshold && !g.eligible(ag.tun.MinAAScoreFraction) {
				skipped = true
				continue
			}
			var more bool
			out, more = g.allocateTetris(ag.bm, out, stop-len(out))
			if more {
				anyAlive = true
			}
			if len(out) >= stop {
				break
			}
		}
		ag.nextRR = (ag.nextRR + 1) % len(ag.groups)
		if !anyAlive {
			if useThreshold && skipped {
				// Every eligible group is dry; ignore the fragmentation
				// bias rather than stall.
				useThreshold = false
				continue
			}
			break // aggregate genuinely out of space
		}
	}
	return out
}

// FreePhysical returns a physical VBN to its group's — or the object
// pool's — free space.
func (ag *Aggregate) FreePhysical(v block.VBN) {
	if ag.pool != nil && ag.pool.Contains(v) {
		ag.pool.space.free(v)
		return
	}
	g := ag.groupOf(v)
	if ag.fresh.Len() > 0 {
		ag.fresh.Grow(ag.bm.Size()) // a group may have come since
		if ag.fresh.Delete(uint64(v)) {
			g.unwrite(v)
		}
	}
	g.free(ag.bm, v, ag.tun.TrimOnFree)
}

// markFresh records group VBNs, just allocated by a boundary operation, as
// fresh.
func (ag *Aggregate) markFresh(vbns []block.VBN) {
	ag.fresh.Grow(ag.bm.Size())
	for _, v := range vbns {
		ag.fresh.Add(uint64(v))
	}
}

// CPStats summarizes one consistency point.
type CPStats struct {
	// MetafilePagesAggregate is the number of dirty physical-bitmap pages
	// written back.
	MetafilePagesAggregate int
	// MetafilePagesVols is the total dirty virtual-bitmap pages across
	// volumes.
	MetafilePagesVols int
	// DeviceBusy is the device time consumed flushing data and parity,
	// summed over groups — a worker-count-invariant total that feeds the
	// measured Counters and MVA demands.
	DeviceBusy time.Duration
	// FlushWall is the modeled wall-clock of the flush phase: the makespan
	// of the per-group (and pool) flush times over Tunables.Workers. With
	// one worker it equals DeviceBusy; with enough workers it approaches
	// max-over-groups, the payoff of flushing RAID groups concurrently.
	FlushWall time.Duration
	// TopAABlocks is the number of TopAA metafile blocks persisted.
	TopAABlocks int
}

// commitSealed is the flush stage of a consistency point: it flushes each
// group's sealed writes as tetrises (charging the device models), folds the
// sealed AA score deltas into every cache, writes back dirty
// bitmap-metafile pages, and persists the TopAA metafiles (§3.3, §3.4). The
// open banks stay untouched, so at depth 2 the allocator keeps running.
//
// The per-group flush + delta fold fans out over the work pool: each
// group's devices, tetris stats, cache, and delta banks are group-local, so
// the items are independent and every counter merges to the same total at
// any worker count. The aggregate-wide steps — TopAA saves, the shared
// physical-bitmap write-back — run serially after the barrier, in group
// order. Per-volume CP work (delta fold + virtual-bitmap write-back) fans
// out the same way, since each volume owns its bitmap and HBPS.
func (ag *Aggregate) commitSealed() CPStats {
	var st CPStats
	workers := ag.workers()

	// Every TopAA save below stamps this CP's generation, so a crash that
	// drops the saves leaves the previous images detectably stale.
	ag.store.BeginGeneration()

	ag.faults.EnterPhase(faultinject.PhaseFlush)
	busy := make([]time.Duration, len(ag.groups))
	parallel.ForEachObs(workers, len(ag.groups), ag.pobs, func(i int) {
		g := ag.groups[i]
		busy[i] = g.flushSealed()
		ag.st.Emit("cp.flush", i, "group", busy[i], 0)
		g.foldSealed()
	})
	ag.faults.EnterPhase(faultinject.PhaseTopAAGroups)
	for i, g := range ag.groups {
		st.DeviceBusy += busy[i]
		if err := ag.store.SaveRAIDAware(g.key, g.cache); err != nil {
			// Unencodable cache: the save degraded to "no metafile"; the
			// next mount walks the bitmap instead of crashing the CP here.
			ag.st.Emit("cp.topaa", g.Index, "save_error", 0, 0)
			continue
		}
		st.TopAABlocks++
		ag.st.Emit("cp.topaa", g.Index, "group", 0, 1)
	}
	if ag.pool != nil {
		ag.faults.EnterPhase(faultinject.PhasePool)
		poolBusy := ag.pool.flushSealed()
		st.DeviceBusy += poolBusy
		busy = append(busy, poolBusy) // the object store flushes alongside the groups
		ag.st.Emit("cp.flush", poolShard, "pool", poolBusy, 0)
		ag.pool.space.foldSealed()
		ag.store.SaveAgnostic(poolTopAAKey, ag.pool.space.cache)
		st.TopAABlocks += 2
		ag.st.Emit("cp.topaa", poolShard, "pool", 0, 2)
	}
	st.FlushWall = parallel.Makespan(busy, workers)
	ag.faults.EnterPhase(faultinject.PhaseBitmapAgg)
	st.MetafilePagesAggregate = ag.bm.Flush()
	ag.st.Emit("cp.metafile", -1, "aggregate", 0, int64(st.MetafilePagesAggregate))

	ag.faults.EnterPhase(faultinject.PhaseVolFold)
	volPages := make([]int, len(ag.vols))
	parallel.ForEachObs(workers, len(ag.vols), ag.pobs, func(i int) {
		v := ag.vols[i]
		v.space.foldSealed()
		volPages[i] = v.bm.Flush()
	})
	ag.faults.EnterPhase(faultinject.PhaseTopAAVols)
	for i, v := range ag.vols {
		ag.store.SaveAgnostic(v.Name, v.space.cache)
		st.TopAABlocks += 2
		st.MetafilePagesVols += volPages[i]
		ag.st.Emit("cp.metafile", i, "volume", 0, int64(volPages[i]))
		ag.st.Emit("cp.topaa", i, "volume", 0, 2)
	}
	ag.faults.EnterPhase(faultinject.PhaseCommit)
	ag.cpTot.add(st)
	return st
}

// MountOutcome classifies how one space's AA cache came back at mount.
type MountOutcome int

const (
	// MountCleanLoad: the TopAA metafile verified and decoded cleanly.
	MountCleanLoad MountOutcome = iota
	// MountReconstructed: RAID rebuilt at least one damaged chunk from
	// parity before the decode succeeded.
	MountReconstructed
	// MountMissingFallback: no metafile existed; bitmap walk.
	MountMissingFallback
	// MountStaleFallback: the metafile predates the last CP generation (its
	// saves were dropped by a crash); bitmap walk.
	MountStaleFallback
	// MountTornFallback: the metafile carries mixed generations (the crash
	// interrupted the save itself); bitmap walk.
	MountTornFallback
	// MountDamageFallback: damage beyond RAID reconstruction, or a decode
	// that failed validation; bitmap walk.
	MountDamageFallback
	// MountBitmapWalk: the caller asked for a walk (Remount(false)).
	MountBitmapWalk
)

// String implements fmt.Stringer; the values name trace events and scrub
// rows.
func (o MountOutcome) String() string {
	switch o {
	case MountCleanLoad:
		return "clean_load"
	case MountReconstructed:
		return "reconstructed"
	case MountMissingFallback:
		return "missing_fallback"
	case MountStaleFallback:
		return "stale_fallback"
	case MountTornFallback:
		return "torn_fallback"
	case MountDamageFallback:
		return "damage_fallback"
	case MountBitmapWalk:
		return "bitmap_walk"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// IsFallback reports whether the outcome forced a bitmap walk the caller
// did not ask for.
func (o MountOutcome) IsFallback() bool {
	switch o {
	case MountMissingFallback, MountStaleFallback, MountTornFallback, MountDamageFallback:
		return true
	}
	return false
}

// classifyLoadError maps a TopAA store load error to its mount outcome.
func classifyLoadError(err error) MountOutcome {
	switch {
	case errors.Is(err, topaa.ErrMissing):
		return MountMissingFallback
	case errors.Is(err, topaa.ErrStale):
		return MountStaleFallback
	case errors.Is(err, topaa.ErrTorn):
		return MountTornFallback
	default:
		return MountDamageFallback
	}
}

// MountStats records the work needed to make the AA caches operational
// after a remount — the quantity Fig. 10 plots, since the first CP cannot
// complete before write allocation can begin (§3.4).
type MountStats struct {
	// TopAABlockReads counts TopAA metafile blocks read (failed probes of
	// missing metafiles charge one).
	TopAABlockReads uint64
	// BitmapPagesRead counts bitmap-metafile pages read by cache-rebuild
	// walks (zero when every TopAA metafile is intact).
	BitmapPagesRead uint64
	// CacheInserts counts AA-cache insert operations performed before the
	// caches were declared operational.
	CacheInserts uint64
	// Fallbacks counts spaces whose TopAA metafile was missing, stale,
	// torn, or damaged, forcing a bitmap walk (the WAFL-Iron-recomputation
	// path). It equals MissingFallbacks + StaleFallbacks + TornFallbacks +
	// DamageFallbacks.
	Fallbacks int
	// Reconstructed counts spaces whose metafile needed a RAID chunk
	// rebuild but then loaded successfully.
	Reconstructed int
	// MissingFallbacks/StaleFallbacks/TornFallbacks/DamageFallbacks break
	// Fallbacks down by failure class (see MountOutcome).
	MissingFallbacks int
	StaleFallbacks   int
	TornFallbacks    int
	DamageFallbacks  int
}

// note records one space's outcome into the stats.
func (ms *MountStats) note(o MountOutcome) {
	switch o {
	case MountReconstructed:
		ms.Reconstructed++
	case MountMissingFallback:
		ms.MissingFallbacks++
	case MountStaleFallback:
		ms.StaleFallbacks++
	case MountTornFallback:
		ms.TornFallbacks++
	case MountDamageFallback:
		ms.DamageFallbacks++
	}
	if o.IsFallback() {
		ms.Fallbacks++
	}
}

// Remount simulates a failover/reboot: all in-memory allocator state is
// dropped, then the AA caches are rebuilt — from the TopAA metafiles when
// useTopAA is true (falling back per space on damage), or by walking the
// bitmap metafiles otherwise.
//
// Both rebuild passes fan out over the work pool: every group and every
// agnostic space owns its cache, cursor, and delta ledgers, the TopAA store is
// thread-safe, and bitmap scans only read bit words while charging an
// atomic counter. Fallback walks additionally shard their own popcount
// work (aa.ScoreAllParallelObs), so a single damaged space still spreads its
// full-bitmap walk across workers. Per-item stats land in index-owned
// slots and merge in order, keeping MountStats identical at any worker
// count.
func (ag *Aggregate) Remount(useTopAA bool) MountStats {
	var ms MountStats
	// A remount is the reboot after the crash (if any): the controller is
	// back up, so the injector stops dropping saves.
	ag.faults.Recover()
	if ag.fresh.Len() > 0 { // the write banks are emptied below
		ag.fresh.Clear()
	}
	preReads, _ := ag.store.Stats()
	preBM := ag.bm.Stats().PageReads
	preVolBM := make([]uint64, len(ag.vols))
	for i, v := range ag.vols {
		preVolBM[i] = v.bm.Stats().PageReads
	}

	workers := ag.workers()
	type rebuildStats struct {
		inserts uint64
		outcome MountOutcome
	}

	groupStats := make([]rebuildStats, len(ag.groups))
	parallel.ForEachObs(workers, len(ag.groups), ag.pobs, func(i int) {
		g := ag.groups[i]
		g.curValid = false
		g.cpWrites = g.cpWrites[:0]
		g.deltas.clear()
		g.flushDeltas.clear()
		g.flushWrites = g.flushWrites[:0]
		g.flushCS = g.flushCS[:0]
		outcome := MountBitmapWalk
		rebuilt := false
		if useTopAA {
			// The decoder holds listed ids to this group's AA count; a score
			// its AA cannot hold is damage too.
			entries, loadOutcome, err := ag.store.LoadRAIDAwareBounded(g.key, g.topo.NumAAs())
			if err == nil {
				valid := true
				for _, e := range entries {
					if e.Score > aaBlockCount(g.topo, e.ID) {
						valid = false
						break
					}
				}
				if valid {
					g.cache.Reset()
					for _, e := range entries {
						g.cache.Insert(e.ID, e.Score)
						groupStats[i].inserts++
					}
					g.seedOnly = true
					rebuilt = true
					outcome = MountCleanLoad
					if loadOutcome == topaa.LoadReconstructed {
						outcome = MountReconstructed
					}
				} else {
					outcome = MountDamageFallback
				}
			} else {
				outcome = classifyLoadError(err)
			}
		}
		if !rebuilt {
			g.scores = aa.ScoreAllParallelObs(g.scores, g.topo, ag.bm, workers, ag.pobs, ag.scoredAAs)
			g.cache.ResetFromScores(g.scores)
			g.seedOnly = false
			groupStats[i].inserts += uint64(len(g.scores))
		}
		g.q.Reset(g.cache)
		groupStats[i].outcome = outcome
		ag.st.Emit("mount.group", i, outcome.String(), 0, int64(groupStats[i].inserts))
	})
	for _, st := range groupStats {
		ms.CacheInserts += st.inserts
		ms.note(st.outcome)
	}

	spaces := ag.agnosticSpaces()
	spaceStats := make([]rebuildStats, len(spaces))
	parallel.ForEachObs(workers, len(spaces), ag.pobs, func(i int) {
		sp := spaces[i]
		sp.curValid = false
		sp.deltas.clear()
		sp.flushDeltas.clear()
		outcome := MountBitmapWalk
		rebuilt := false
		if useTopAA {
			// The pages decode into the space's own HBPS, the decoder holding
			// them to its geometry and listed ids to its AA count; an image
			// that verifies but describes some other space — a different
			// geometry, or not one tracked item per AA — is damage too, found
			// here and not inside a later pick. The walk below rebuilds
			// whatever a failed decode left.
			loadOutcome, err := ag.store.LoadAgnosticInto(sp.name, sp.cache, sp.topo.NumAAs())
			switch {
			case err != nil:
				outcome = classifyLoadError(err)
			case sp.cache.Total() != uint64(sp.topo.NumAAs()):
				outcome = MountDamageFallback
			default:
				rebuilt = true
				outcome = MountCleanLoad
				if loadOutcome == topaa.LoadReconstructed {
					outcome = MountReconstructed
				}
			}
		}
		if !rebuilt {
			sp.replenish()
			spaceStats[i].inserts += uint64(sp.topo.NumAAs())
		}
		sp.q.Reset(sp.cache)
		spaceStats[i].outcome = outcome
		ag.st.Emit("mount.space", sp.shard, outcome.String(), 0, int64(spaceStats[i].inserts))
	})
	for _, st := range spaceStats {
		ms.CacheInserts += st.inserts
		ms.note(st.outcome)
	}

	postReads, _ := ag.store.Stats()
	ms.TopAABlockReads = postReads - preReads
	ms.BitmapPagesRead = ag.bm.Stats().PageReads - preBM
	for i, v := range ag.vols {
		ms.BitmapPagesRead += v.bm.Stats().PageReads - preVolBM[i]
	}
	ag.mountTot.add(ms)
	return ms
}

// workers resolves the aggregate's parallelism knob (Tunables.Workers).
func (ag *Aggregate) workers() int { return parallel.Workers(ag.tun.Workers) }

// CompleteBackgroundFill finishes the post-mount background work for
// seed-only RAID-aware caches: every AA absent from the seed is scored from
// the bitmap (in parallel, as a controller spreads this walk across cores)
// and inserted (§3.4). Returns the number of AAs inserted.
func (ag *Aggregate) CompleteBackgroundFill() uint64 {
	var inserted uint64
	for _, g := range ag.groups {
		if !g.seedOnly {
			continue
		}
		g.scores = aa.ScoreAllParallelObs(g.scores, g.topo, ag.bm, ag.workers(), ag.pobs, ag.scoredAAs)
		for id := 0; id < g.topo.NumAAs(); id++ {
			if g.curValid && aa.ID(id) == g.curAA {
				continue // held by the allocator; reinserted at finishAA
			}
			if g.q.Holds(aa.ID(id)) {
				continue // staged in a shard queue at its frozen seed score
			}
			if !g.cache.Tracked(aa.ID(id)) {
				g.cache.Insert(aa.ID(id), g.scores[id])
				// The bitmap score already reflects any deltas that were
				// pending while the AA was untracked.
				g.deltas.delete(aa.ID(id))
				inserted++
			}
		}
		g.seedOnly = false
	}
	return inserted
}

// RepairTopAA recomputes every TopAA metafile from the authoritative bitmap
// metafiles and rewrites it — the recovery WAFL Iron performs online when a
// metafile is damaged beyond RAID reconstruction (§3.4). It returns the
// number of metafile entries rewritten. The in-memory caches are rebuilt
// too, so a subsequent Remount(true) succeeds with no fallbacks.
func (ag *Aggregate) RepairTopAA() int {
	repaired := 0
	for _, g := range ag.groups {
		g.finishAA(ag.bm)
		g.scores = aa.ScoreAllParallelObs(g.scores, g.topo, ag.bm, ag.workers(), ag.pobs, ag.scoredAAs)
		g.cache.ResetFromScores(g.scores)
		g.seedOnly = false
		g.deltas.clear()
		g.flushDeltas.clear()
		err := ag.store.SaveRAIDAware(g.key, g.cache)
		// Rebind the pick queue to the repaired cache after the save, so the
		// metafile holds the complete score set.
		g.q.Reset(g.cache)
		if err != nil {
			// Bitmap-derived scores always fit the encoding; an error here
			// would mean the topology itself is unencodable, which the
			// builders reject. Keep going: the space stays on bitmap walks.
			continue
		}
		repaired++
	}
	for _, sp := range ag.agnosticSpaces() {
		sp.replenish()
		ag.store.SaveAgnostic(sp.name, sp.cache)
		sp.q.Reset(sp.cache)
		repaired++
	}
	return repaired
}
