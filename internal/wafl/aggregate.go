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
	// starts[i] is groups[i]'s first physical VBN, ascending, and groupsEnd
	// is one past the last group's: the index groupOf looks VBNs up in.
	starts    []block.VBN
	groupsEnd block.VBN
	vols      []*FlexVol
	pool      *Pool
	// spaces indexes every RAID-agnostic space: the volumes' in creation
	// order, then the pool's (agnosticSpaces).
	spaces []*agnosticSpace
	store  *topaa.Store
	tun    Tunables
	rng    *rand.Rand
	faults *faultinject.Injector // nil-safe; set when Tunables.Faults is armed

	nextRR int // round-robin start position over groups

	// flushBusy is commitSealed's scratch: each group's flush busy time,
	// then the pool's, for the modeled flush wall.
	flushBusy []time.Duration

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

	// Observability (see obs.go). reg always exists.
	reg       *obs.Registry
	obsOpts   ObsOptions
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
	var blocks uint64
	for _, spec := range specs {
		blocks += uint64(spec.DataDevices) * spec.BlocksPerDevice
	}
	checkCap("aggregate", blocks)
	tun = tun.Defaults()
	rng := rand.New(rand.NewSource(seed))
	ag := &Aggregate{store: topaa.NewStore(), tun: tun, rng: rng}
	if tun.Faults != nil {
		ag.faults = faultinject.New(*tun.Faults)
		ag.store.SetInjector(ag.faults)
	}
	for i, spec := range specs {
		ag.appendGroup(buildGroup(i, spec, ag.groupsEnd, tun, rng))
	}
	ag.bm = bitmap.New(uint64(ag.groupsEnd))
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
	checkCap("aggregate", uint64(ag.groupsEnd)+uint64(spec.DataDevices)*spec.BlocksPerDevice)
	g := buildGroup(len(ag.groups), spec, ag.groupsEnd, ag.tun, ag.rng)
	ag.appendGroup(g)
	ag.bm.Grow(uint64(ag.groupsEnd))
	ag.registerGroupObs(g)
	return g
}

// appendGroup adds g, which starts where the last group ends, to the groups
// and to groupOf's index.
func (ag *Aggregate) appendGroup(g *Group) {
	ag.groups = append(ag.groups, g)
	ag.starts = append(ag.starts, g.geo.StartVBN)
	ag.groupsEnd = g.geo.VBNRange().End
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
	ag.registerSpaceObs(v.space, "vol."+v.Name)
	return v
}

// agnosticSpaces returns every RAID-agnostic space — the volumes' in
// creation order, then the pool's — each named by its TopAA metafile key.
// The slice is the aggregate's own index, kept by AddVolume and
// AddObjectPool, so walking it at every CP allocates nothing.
func (ag *Aggregate) agnosticSpaces() []*agnosticSpace { return ag.spaces }

// groupOf returns the RAID group owning physical VBN v: the last one whose
// first VBN is at or below v, counted over the start index without a branch
// per group.
func (ag *Aggregate) groupOf(v block.VBN) *Group {
	if v >= ag.groupsEnd {
		panic(fmt.Sprintf("wafl: physical %v outside aggregate", v))
	}
	i := 0
	for _, s := range ag.starts[1:] {
		i += int((s - v - 1) >> 63) // 1 when s ≤ v, where s - v wraps
	}
	return ag.groups[i]
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
	ag.freePhysical([]blockPtr{{phys: pack(v)}})
}

// freePhysical returns the physical half of every pair in ps to its group's
// — or the object pool's — free space, in order: one bitmap clear, whose
// result is the double-free check, and one ledger entry per block. A fresh
// block also leaves its group's open write set, and under TrimOnFree its
// device hears of the free.
func (ag *Aggregate) freePhysical(ps []blockPtr) {
	bm, pool, trim := ag.bm, ag.pool, ag.tun.TrimOnFree
	for _, p := range ps {
		v := p.phys.vbn()
		if pool != nil && pool.Contains(v) {
			pool.space.free(v)
			continue
		}
		g := ag.groupOf(v)
		if !bm.Clear(v) {
			panic(fmt.Sprintf("wafl: double free of physical %v", v))
		}
		g.deltas.add(g.topo.AAOf(v), 1)
		if ag.fresh.Len() > 0 {
			ag.fresh.Grow(bm.Size()) // a group may have come since
			if ag.fresh.Delete(uint64(v)) {
				g.unwrite(v)
			}
		}
		if trim {
			g.trim(v)
		}
	}
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
	// of the per-group (and pool) flush times over Tunables.Workers modeled
	// lanes (8 when unset). With one lane it equals DeviceBusy; with a lane
	// per group it is max-over-groups, the payoff of flushing RAID groups
	// concurrently. It depends on the lane count alone, never on the host.
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
// It runs on the caller's goroutine, group by group and then volume by
// volume. The concurrency of the paper's flush is modeled, not run: the
// groups' busy times schedule over Tunables.Workers lanes (parallel.Makespan)
// into FlushWall, and nothing else depends on the lane count.
func (ag *Aggregate) commitSealed() CPStats {
	var st CPStats

	// Every TopAA save below stamps this CP's generation, so a crash that
	// drops the saves leaves the previous images detectably stale.
	ag.store.BeginGeneration()

	ag.faults.EnterPhase(faultinject.PhaseFlush)
	busy := ag.flushBusy[:0]
	for _, g := range ag.groups {
		d := g.flushSealed()
		g.foldSealed()
		busy = append(busy, d)
		st.DeviceBusy += d
	}
	ag.faults.EnterPhase(faultinject.PhaseTopAAGroups)
	for _, g := range ag.groups {
		if err := ag.store.SaveRAIDAware(g.key, g.cache); err != nil {
			// Unencodable cache: the save degraded to "no metafile"; the
			// next mount walks the bitmap instead of crashing the CP here.
			continue
		}
		st.TopAABlocks++
	}
	if ag.pool != nil {
		ag.faults.EnterPhase(faultinject.PhasePool)
		poolBusy := ag.pool.flushSealed()
		st.DeviceBusy += poolBusy
		busy = append(busy, poolBusy) // the object store flushes alongside the groups
		ag.pool.space.foldSealed()
		ag.store.SaveAgnostic(poolTopAAKey, ag.pool.space.cache)
		st.TopAABlocks += 2
	}
	ag.flushBusy = busy
	st.FlushWall = parallel.Makespan(busy, ag.tun.Workers)
	ag.faults.EnterPhase(faultinject.PhaseBitmapAgg)
	st.MetafilePagesAggregate = ag.bm.Flush()

	ag.faults.EnterPhase(faultinject.PhaseVolFold)
	for _, v := range ag.vols {
		v.space.foldSealed()
		st.MetafilePagesVols += v.bm.Flush()
	}
	ag.faults.EnterPhase(faultinject.PhaseTopAAVols)
	for _, v := range ag.vols {
		ag.store.SaveAgnostic(v.Name, v.space.cache)
		st.TopAABlocks += 2
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
// bitmap metafiles otherwise. Groups rebuild in index order, then the
// agnostic spaces, all on the caller's goroutine; Tunables.Workers plays no
// part.
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

	for _, g := range ag.groups {
		g.curValid = false
		g.open.Reset()
		g.deltas.clear()
		g.flushDeltas.clear()
		g.sealed.Reset()
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
					}
					ms.CacheInserts += uint64(len(entries))
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
			ag.scoreAll(g)
			g.cache.ResetFromScores(g.scores)
			g.seedOnly = false
			ms.CacheInserts += uint64(len(g.scores))
		}
		g.q.Reset(g.cache)
		ms.note(outcome)
	}

	for _, sp := range ag.agnosticSpaces() {
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
			ms.CacheInserts += uint64(sp.topo.NumAAs())
		}
		sp.q.Reset(sp.cache)
		ms.note(outcome)
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

// scoreAll rescores every AA of g from the physical bitmap into g.scores,
// charging the scan once.
func (ag *Aggregate) scoreAll(g *Group) {
	g.scores = aa.ScoreAllInto(g.scores, g.topo, ag.bm)
	ag.scoredAAs.Add(uint64(len(g.scores)))
}

// CompleteBackgroundFill finishes the post-mount background work for
// seed-only RAID-aware caches: every AA absent from the seed is scored from
// the bitmap and inserted (§3.4). Returns the number of AAs inserted.
func (ag *Aggregate) CompleteBackgroundFill() uint64 {
	var inserted uint64
	for _, g := range ag.groups {
		if !g.seedOnly {
			continue
		}
		ag.scoreAll(g)
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
		ag.scoreAll(g)
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
