package wafl

import (
	"fmt"
	"strings"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/control"
	"waflfs/internal/heapcache"
	"waflfs/internal/obs"
	"waflfs/internal/obs/fragscan"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/picks"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/parallel"
	"waflfs/internal/shardq"
)

// Observability wiring. Every Aggregate owns a private obs.Registry holding
// read-through views over the plain counters the simulation already keeps
// (System.Counters, group/space measurement fields, cache Metrics, device
// stats). There is exactly one accounting path — the registry never stores a
// second copy of any number — so CPStats/Counters and the metric snapshots
// cannot drift; CountersFromSnapshot plus the derived-view tests prove it.
//
// Determinism contract: all registered metrics except those marked volatile
// (flush wall-clock, pool occupancy) are worker-count invariant, so
// Registry().StableSnapshot() is DeepEqual across runs with different
// Tunables.Workers, and so is every per-CP stream sampled from it (see
// obs_test.go).

// ObsOptions enables the observability layer for a System/Aggregate via
// Tunables.Obs. The zero value (and a nil pointer) keeps everything off:
// the private registry still exists (registration is construction-time
// work), but no sink is fed and nothing is mirrored — the hot paths then pay
// only nil-checks.
type ObsOptions struct {
	// Name labels this system in the export registry (metric prefix) and in
	// every per-CP stream. Defaults to "wafl". Experiment arms sharing an
	// Export registry must use distinct names, or the collision-suffix
	// ("#2") assignment follows construction order.
	Name string
	// Export, when non-nil, receives every metric of the private registry
	// under the prefix Name+"." (shared instruments, not copies) — the
	// registry waflbench serves over -metrics-addr.
	Export *obs.Registry
	// Frag, when non-nil, receives an allocation-quality scan of every
	// space (RAID groups, volumes, object pool) at each CP boundary. The
	// scans are purely observational — no modeled cost is charged.
	Frag *fragscan.Recorder
	// FragEvery scans every Nth CP (≤1 = every CP). On-demand scans via
	// System.FragScan are unaffected.
	FragEvery int
	// TSDB, when non-nil, receives a fixed-memory time series: every
	// non-volatile metric sampled at each CP boundary under
	// "<Name>.<metric>", plus per-space fragmentation deciles when the CP
	// fragscan hook runs. Timestamps are the modeled clock, so the stored
	// series are byte-identical at any worker width.
	TSDB *tsdb.Store
	// Picks, when non-nil, receives one PickRecord per AA pick into
	// bounded per-space rings named like fragscan's streams
	// ("<Name>.rg<N>", "<Name>.vol.<v>", "<Name>.pool").
	Picks *picks.Recorder
	// Live, when non-nil, receives the registry's full snapshot under Name
	// at every CP boundary. The snapshot is taken on the CP thread, where
	// the read-through closures are race-free, so HTTP handlers can serve
	// it while the next CP is in flight (see obs.LatestHandler).
	Live *obs.Latest
	// Watchdogs enables the per-CP online invariant monitors (free-block
	// conservation, rotating cached-score spot checks, pick-quality
	// floors; see watchdog.go). Violations bump watchdog.* counters.
	Watchdogs bool
	// OpTrace, when non-nil, samples read/write ops into request-scoped
	// span trees: deterministic trace IDs, allocator-pick annotations, and
	// per-stage CP cost attribution that reconciles exactly with the
	// vol.<name>.lat_ns histograms. Rings are named like the pick streams
	// ("<Name>.vol.<v>"); per-stage accumulators surface as
	// vol.<name>.attr.<stage>_ns counters (and hence tsdb series). When SLO
	// is also armed, transitions carry worst-bucket trace exemplars.
	OpTrace *optrace.Recorder
	// SLO, when non-nil together with TSDB, evaluates the set's spec
	// portfolio for this system at every CP boundary: error budgets and
	// burn rates are computed from the TSDB series over modeled-clock
	// windows, and the resulting alert states are written back as
	// "<Name>.slo.*" series. Scalar totals surface as slo.* metrics. The
	// set may be shared across systems (arms); totals then aggregate.
	SLO *slo.Set
	// Control, when non-nil together with TSDB, arms the closed-loop
	// controller for this system: the policy portfolio is evaluated at
	// every CP boundary on the modeled clock, immediately after the SLO
	// engine, reading "<Name>.*" series (including the slo.* alert states
	// written that same CP) and actuating the System's bounded knob
	// surface (delayed-free budget, alloc batch, fragscan stride, scrub
	// kicks). Decisions land in a bounded provenance ring; per-knob values
	// are written back as "<Name>.control.knob.*" series and scalar totals
	// surface as control.* metrics. The set may be shared across systems
	// (arms); totals then aggregate. Clean runs with the default portfolio
	// actuate nothing and stay byte-identical to Control=nil.
	Control *control.Set
}

func (o *ObsOptions) normalized() ObsOptions {
	var out ObsOptions
	if o != nil {
		out = *o
	}
	if out.Name == "" {
		out.Name = "wafl"
	}
	return out
}

// cpTotals accumulates the CPStats of every commitSealed — the single write
// point the cp.* registry metrics read through.
type cpTotals struct {
	cps         uint64
	pagesAgg    uint64
	pagesVols   uint64
	deviceBusy  time.Duration
	flushWall   time.Duration
	topAABlocks uint64
}

func (t *cpTotals) add(st CPStats) {
	t.cps++
	t.pagesAgg += uint64(st.MetafilePagesAggregate)
	t.pagesVols += uint64(st.MetafilePagesVols)
	t.deviceBusy += st.DeviceBusy
	t.flushWall += st.FlushWall
	t.topAABlocks += uint64(st.TopAABlocks)
}

// mountTotals likewise accumulates MountStats across Remounts.
type mountTotals struct {
	mounts           uint64
	topAABlockReads  uint64
	bitmapPagesRead  uint64
	cacheInserts     uint64
	fallbacks        uint64
	reconstructed    uint64
	missingFallbacks uint64
	staleFallbacks   uint64
	tornFallbacks    uint64
	damageFallbacks  uint64
}

func (t *mountTotals) add(ms MountStats) {
	t.mounts++
	t.topAABlockReads += ms.TopAABlockReads
	t.bitmapPagesRead += ms.BitmapPagesRead
	t.cacheInserts += ms.CacheInserts
	t.fallbacks += uint64(ms.Fallbacks)
	t.reconstructed += uint64(ms.Reconstructed)
	t.missingFallbacks += uint64(ms.MissingFallbacks)
	t.staleFallbacks += uint64(ms.StaleFallbacks)
	t.tornFallbacks += uint64(ms.TornFallbacks)
	t.damageFallbacks += uint64(ms.DamageFallbacks)
}

// scrubTotals accumulates ScrubReport outcomes across Scrub calls.
type scrubTotals struct {
	scrubs    uint64
	checked   uint64
	divergent uint64
}

func (t *scrubTotals) add(r ScrubReport) {
	t.scrubs++
	t.checked += uint64(len(r.Spaces))
	t.divergent += uint64(len(r.Divergent()))
}

// initObs builds the aggregate's private registry and pool instruments, and
// registers the aggregate-wide metric views. Called once from NewAggregate
// after the bitmap exists.
func (ag *Aggregate) initObs() {
	o := ag.tun.Obs.normalized()
	ag.obsOpts = o
	ag.reg = obs.NewRegistry()
	if o.Export != nil {
		ag.reg.MirrorTo(o.Export, o.Name+".")
	}

	ag.scoredAAs = ag.reg.Counter("aa.scored")
	ag.pobs = &parallel.Obs{
		Fanouts:   ag.reg.Counter("parallel.fanouts"),
		Items:     ag.reg.Counter("parallel.items"),
		Width:     ag.reg.Histogram("parallel.fanout_width", obs.FanoutBuckets),
		Occupancy: ag.reg.VolatileCounter("parallel.occupancy"),
	}

	ag.reg.CounterFunc("cp.count", func() uint64 { return ag.cpTot.cps })
	ag.reg.CounterFunc("cp.metafile_pages_agg", func() uint64 { return ag.cpTot.pagesAgg })
	ag.reg.CounterFunc("cp.metafile_pages_vols", func() uint64 { return ag.cpTot.pagesVols })
	ag.reg.CounterFunc("cp.device_busy_ns", func() uint64 { return uint64(ag.cpTot.deviceBusy) })
	ag.reg.VolatileCounterFunc("cp.flush_wall_ns", func() uint64 { return uint64(ag.cpTot.flushWall) })
	ag.reg.CounterFunc("cp.topaa_blocks", func() uint64 { return ag.cpTot.topAABlocks })

	ag.reg.CounterFunc("mount.count", func() uint64 { return ag.mountTot.mounts })
	ag.reg.CounterFunc("mount.topaa_block_reads", func() uint64 { return ag.mountTot.topAABlockReads })
	ag.reg.CounterFunc("mount.bitmap_pages_read", func() uint64 { return ag.mountTot.bitmapPagesRead })
	ag.reg.CounterFunc("mount.cache_inserts", func() uint64 { return ag.mountTot.cacheInserts })
	ag.reg.CounterFunc("mount.fallbacks", func() uint64 { return ag.mountTot.fallbacks })
	ag.reg.CounterFunc("mount.reconstructed", func() uint64 { return ag.mountTot.reconstructed })
	ag.reg.CounterFunc("mount.missing_fallbacks", func() uint64 { return ag.mountTot.missingFallbacks })
	ag.reg.CounterFunc("mount.stale_fallbacks", func() uint64 { return ag.mountTot.staleFallbacks })
	ag.reg.CounterFunc("mount.torn_fallbacks", func() uint64 { return ag.mountTot.tornFallbacks })
	ag.reg.CounterFunc("mount.damage_fallbacks", func() uint64 { return ag.mountTot.damageFallbacks })

	ag.initWatchdogs(o)

	// Pick-provenance views: read through the rings registered by
	// registerGroupObs/registerSpaceObs (the slice is filled after initObs
	// returns; the closures evaluate at snapshot time).
	ag.reg.CounterFunc("picks.recorded", func() uint64 {
		var n uint64
		for _, r := range ag.pickRings {
			n += r.Recorded()
		}
		return n
	})
	ag.reg.CounterFunc("picks.dropped", func() uint64 {
		var n uint64
		for _, r := range ag.pickRings {
			n += r.Dropped()
		}
		return n
	})
	for _, reason := range picks.Reasons() {
		reason := reason
		ag.reg.CounterFunc("picks."+string(reason), func() uint64 {
			var n uint64
			for _, r := range ag.pickRings {
				n += r.ReasonCount(reason)
			}
			return n
		})
	}

	// Op-trace views: read through this arm's rings (filled by
	// registerSpaceObs), registered unconditionally like slo.* so the
	// metric set does not depend on arming.
	ag.reg.CounterFunc("optrace.sampled_ops", func() uint64 {
		var n uint64
		for _, r := range ag.otRings {
			n += r.Sampled()
		}
		return n
	})
	ag.reg.CounterFunc("optrace.slow_sampled", func() uint64 {
		var n uint64
		for _, r := range ag.otRings {
			n += r.SlowSampled()
		}
		return n
	})
	ag.reg.CounterFunc("optrace.dropped", func() uint64 {
		var n uint64
		for _, r := range ag.otRings {
			n += r.Dropped()
		}
		return n
	})

	ag.reg.CounterFunc("scrub.count", func() uint64 { return ag.scrubTot.scrubs })
	ag.reg.CounterFunc("scrub.spaces_checked", func() uint64 { return ag.scrubTot.checked })
	ag.reg.CounterFunc("scrub.divergent", func() uint64 { return ag.scrubTot.divergent })

	ag.reg.CounterFunc("topaa.block_reads", func() uint64 { r, _ := ag.store.Stats(); return r })
	ag.reg.CounterFunc("topaa.block_writes", func() uint64 { _, w := ag.store.Stats(); return w })
	ag.reg.CounterFunc("topaa.reconstructions", func() uint64 { return ag.store.Recovery().Reconstructions })
	ag.reg.CounterFunc("topaa.save_errors", func() uint64 { return ag.store.Recovery().SaveErrors })
	ag.reg.CounterFunc("topaa.stale_loads", func() uint64 { return ag.store.Recovery().StaleLoads })
	ag.reg.CounterFunc("topaa.torn_loads", func() uint64 { return ag.store.Recovery().TornLoads })
	ag.reg.CounterFunc("topaa.damaged_loads", func() uint64 { return ag.store.Recovery().DamagedLoads })
	ag.reg.CounterFunc("faults.crashes", func() uint64 { return ag.faults.Crashes() })

	// Modeled pick wall at the configured worker width. Volatile: like
	// cp.flush_wall_ns it shrinks as Workers grows, while every alloc.*
	// input underneath it stays worker-invariant.
	ag.reg.VolatileCounterFunc("alloc.pick_wall_ns", func() uint64 {
		return uint64(ag.AllocPickWall(ag.workers()))
	})

	// SLO engine: the CP tail calls Evaluate after the tsdb Sample for the
	// same CP, so live snapshots see the slo.* counters with a one-CP lag.
	// The counters are registered unconditionally (nil engine reads 0) so
	// the metric set does not depend on arming.
	if o.SLO != nil && o.TSDB != nil {
		ag.sloEng = o.SLO.Engine(o.Name, o.TSDB)
		if o.OpTrace != nil {
			// SLO transitions link to a representative sampled trace from
			// the transitioning space's worst latency bucket.
			ag.sloEng.SetExemplarSource(o.OpTrace)
		}
	}
	ag.reg.CounterFunc("slo.evaluations", func() uint64 { return ag.sloEng.Evaluations() })
	ag.reg.CounterFunc("slo.warns", func() uint64 { return ag.sloEng.Warns() })
	ag.reg.CounterFunc("slo.pages", func() uint64 { return ag.sloEng.Pages() })
	ag.reg.CounterFunc("slo.transitions", func() uint64 { return ag.sloEng.Transitions() })

	// Closed-loop controller scalars. The engine itself is armed from
	// NewSystem (it actuates the System's knob surface, which does not
	// exist yet here); these views are registered unconditionally like the
	// slo.* block above — a nil engine reads 0.
	ag.reg.CounterFunc("control.evaluations", func() uint64 { return ag.ctl.Evaluations() })
	ag.reg.CounterFunc("control.actuations", func() uint64 { return ag.ctl.Actuations() })
	ag.reg.CounterFunc("control.suppressed", func() uint64 { return ag.ctl.Suppressed() })
	ag.reg.CounterFunc("control.transitions", func() uint64 { return ag.ctl.Transitions() })

	ag.reg.CounterFunc("agg.bitmap.pages_dirtied", func() uint64 { return ag.bm.Stats().PagesDirtied })
	ag.reg.CounterFunc("agg.bitmap.pages_flushed", func() uint64 { return ag.bm.Stats().PagesFlushed })
	ag.reg.CounterFunc("agg.bitmap.page_reads", func() uint64 { return ag.bm.Stats().PageReads })
	ag.reg.GaugeFunc("agg.used_blocks", func() int64 { return int64(ag.bm.Used()) })
	ag.reg.GaugeFunc("agg.blocks", func() int64 { return int64(ag.bm.Size()) })
}

// Registry returns the aggregate's metric registry.
func (ag *Aggregate) Registry() *obs.Registry { return ag.reg }

// Registry returns the system's metric registry.
func (s *System) Registry() *obs.Registry { return s.Agg.reg }

// registerGroupObs exposes one RAID group's counters under rg<N>.* and
// hands the group its pick sink. Heap metrics read through the current
// cache object, so they reset when a remount rebuilds the cache (exporters
// treat that as a counter reset).
func (ag *Aggregate) registerGroupObs(g *Group) {
	g.scored = ag.scoredAAs
	if rec := ag.obsOpts.Picks; rec != nil {
		g.pr = rec.Space(ag.obsOpts.Name + "." + g.key)
		ag.pickRings = append(ag.pickRings, g.pr)
		g.cpNow = &ag.cpOrd
	}
	if ag.wd.enabled {
		g.wd = &ag.wd
	}
	p := fmt.Sprintf("rg%d.", g.Index)
	ag.reg.CounterFunc(p+"picks", func() uint64 { return g.pickedCount })
	ag.reg.CounterFunc(p+"cache_ops", func() uint64 { return g.cacheOps })
	ag.reg.CounterFunc(p+"azcs.seq_writes", func() uint64 { return g.azcsSeqWrites })
	ag.reg.CounterFunc(p+"azcs.random_writes", func() uint64 { return g.azcsRandomWrites })
	ag.reg.CounterFunc(p+"device_busy_ns", func() uint64 { return uint64(g.deviceBusy) })
	ag.reg.CounterFunc(p+"heap.updates", func() uint64 { return g.cache.Metrics().Updates })
	ag.reg.CounterFunc(p+"heap.pops", func() uint64 { return g.cache.Metrics().Pops })
	ag.reg.CounterFunc(p+"heap.inserts", func() uint64 { return g.cache.Metrics().Inserts })
	ag.reg.CounterFunc(p+"heap.swaps", func() uint64 { return g.cache.Metrics().Swaps })
	ag.reg.GaugeFunc(p+"heap.size", func() int64 { return int64(g.cache.Len()) })
	ag.registerAllocObs(p, g.as, g.q.Metrics)
}

// registerSpaceObs exposes one agnostic space's counters under its stream
// name ("vol.<name>." or "pool." as the metric prefix) and hands it its
// pick sink and scoring instruments. HBPS metrics read through the current
// cache object (reset on remount, like the heap metrics).
func (ag *Aggregate) registerSpaceObs(sp *agnosticSpace, stream string) {
	prefix := stream + "."
	sp.stream = stream
	sp.pobs = ag.pobs
	sp.scored = ag.scoredAAs
	if rec := ag.obsOpts.Picks; rec != nil {
		sp.pr = rec.Space(ag.obsOpts.Name + "." + sp.stream)
		ag.pickRings = append(ag.pickRings, sp.pr)
		sp.cpNow = &ag.cpOrd
	}
	if ag.wd.enabled {
		sp.wd = &ag.wd
	}
	if strings.HasPrefix(prefix, "vol.") {
		// Per-volume modeled op-latency histogram — the latency SLI. Fixed
		// 1-2-5 buckets so the tsdb can keep cumulative per-bucket counter
		// series (Config.HistBuckets) for windowed burn-rate queries.
		sp.lat = ag.reg.Histogram(prefix+"lat_ns", obs.LatencyBuckets)
		// Per-stage latency attribution: always-on accumulators whose sum
		// equals the histogram's observed total exactly (see attributeWrites
		// and System.Read), surfaced as vol.<name>.attr.<stage>_ns counters and
		// hence tsdb series — the "where do the nanoseconds go" profile.
		for _, stage := range optrace.Stages() {
			stage := stage
			ag.reg.CounterFunc(prefix+"attr."+stage.String()+"_ns", func() uint64 {
				return sp.attr[stage]
			})
		}
		if rec := ag.obsOpts.OpTrace; rec != nil {
			sp.tr = rec.Space(ag.obsOpts.Name + "." + sp.stream)
			ag.otRings = append(ag.otRings, sp.tr)
		}
	}
	ag.reg.CounterFunc(prefix+"picks", func() uint64 { return sp.pickedCount })
	ag.reg.CounterFunc(prefix+"cache_ops", func() uint64 { return sp.cacheOps })
	ag.reg.CounterFunc(prefix+"replenishes", func() uint64 { return sp.replenishes })
	ag.reg.CounterFunc(prefix+"scanned_blocks", func() uint64 { return sp.scannedBlocks })
	ag.reg.CounterFunc(prefix+"allocated_blocks", func() uint64 { return sp.allocatedBlocks })
	ag.reg.CounterFunc(prefix+"hbps.updates", func() uint64 { return sp.cache.Metrics().Updates })
	ag.reg.CounterFunc(prefix+"hbps.bin_migrations", func() uint64 { return sp.cache.Metrics().BinMigrations })
	ag.reg.CounterFunc(prefix+"hbps.evictions", func() uint64 { return sp.cache.Metrics().Evictions })
	ag.reg.CounterFunc(prefix+"hbps.pops", func() uint64 { return sp.cache.Metrics().Pops })
	ag.registerAllocObs(prefix, sp.as, sp.q.Metrics)
	if sp.delayed != nil {
		// Pending spans both generations under pipelined CPs: the open queue
		// plus whatever the sealed queue's budget has not yet reclaimed.
		ag.reg.GaugeFunc(prefix+"delayed.pending", func() int64 {
			n := int64(sp.delayed.count)
			if sp.delayedSealed != nil {
				n += int64(sp.delayedSealed.count)
			}
			return n
		})
		ag.reg.CounterFunc(prefix+"delayed.hbps_pops", func() uint64 { return sp.delayed.cache.Metrics().Pops })
		ag.reg.CounterFunc(prefix+"delayed.hbps_replenishes", func() uint64 { return sp.delayed.cache.Metrics().Replenishes })
	}
}

// pickSink is where a space's one pick site reports (nil when off; set by
// registerGroupObs/registerSpaceObs): the pick-provenance ring, the
// aggregate's current CP ordinal its records carry, and the watchdog's
// pick-quality floor. The provenance reason and the runner-up both follow
// from what the queue's Pop observed — where the entry came from and whether
// a synchronous refill ran — so the allocator itself carries no reporting
// state.
type pickSink struct {
	pr    *picks.Ring
	cpNow *uint64
	wd    *watchdogState
}

// opSink is a volume's op-trace state (zero when off; set by
// registerSpaceObs): tr is the volume's optrace ring; curTID is the trace ID
// of the sampled op currently allocating (0 otherwise), stamped into pick
// provenance records; lastPick snapshots the most recent pick decision for
// the trace's alloc annotation span; attr accumulates per-stage attributed
// nanoseconds that reconcile exactly with lat's total.
type opSink struct {
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

// pickReason names a cached pick from what its Pop observed: direct is the
// cache's own reason for an entry straight off the shared structure.
func pickReason(p shardq.Popped, direct picks.Reason) picks.Reason {
	switch {
	case p.Refilled:
		return picks.Refill
	case p.Held:
		return picks.ShardLocal
	}
	return direct
}

// observePick reports one pick of RAID group g: the watchdog's pick floor
// and the provenance record. A cached pick's runner-up is the shard's next
// held entry, else the heap's next-best after the pop.
func (g *Group) observePick(bm *bitmap.Bitmap, shard int, e heapcache.Entry, p shardq.Popped) {
	if g.cacheEnabled && g.wd != nil && g.wd.enabled {
		g.wd.pickCheckGroup(g, bm, e.ID, e.Score)
	}
	if g.pr == nil {
		return
	}
	runner, depth, reason := int64(-1), 0, picks.BitmapFallback
	if g.cacheEnabled {
		reason = pickReason(p, picks.HeapTop)
		depth = g.q.Len(shard) + g.cache.Len()
		if e2, ok := g.q.Peek(shard); ok {
			runner = int64(e2.Score)
		} else if e2, ok := g.cache.Best(); ok {
			runner = int64(e2.Score)
		}
	}
	g.pr.Record(*g.cpNow, uint32(e.ID), int64(e.Score), runner, depth, reason, 0)
}

// claimedBin is the bin the list's front is filed under — what the pick
// watchdog holds a pop straight off the list to — or -1 with the watchdog
// off. The pick reads it before the pop unlists the item.
func (s *agnosticSpace) claimedBin() int {
	if s.wd != nil && s.wd.enabled {
		if _, b, ok := s.cache.PeekBestBin(); ok {
			return b
		}
	}
	return -1
}

// observePick reports one pick of the space. claimed is claimedBin() as of
// the pop; a held ID was staged out of a near-best window spanning
// shards×batch list positions, so it has no single claimed bin to verify
// (the non-negative-score floor still holds) and no runner-up. HBPS keeps no
// scores: a direct pop's runner-up is the next listed AA's bin floor, the
// guaranteed lower bound.
func (s *agnosticSpace) observePick(shard int, id aa.ID, score uint32, p shardq.Popped, claimed int) {
	if s.cacheEnabled && s.wd != nil && s.wd.enabled {
		if p.Held {
			claimed = -1
		}
		s.wd.pickCheckSpace(s, id, claimed)
	}
	if s.pr == nil && s.tr == nil {
		return
	}
	runner, depth, reason := int64(-1), 0, picks.BitmapFallback
	if s.cacheEnabled {
		reason = pickReason(p, picks.HBPSBin)
		depth = s.q.Len(shard) + s.cache.ListLen()
		if _, bin, ok := s.cache.PeekBestBin(); ok && !p.Held {
			runner = int64(s.cache.BinFloor(bin))
		}
	}
	s.lastPick = pickNote{aa: uint32(id), score: int64(score), runner: runner, reason: reason}
	if s.pr != nil {
		s.pr.Record(*s.cpNow, uint32(id), int64(score), runner, depth, reason, s.curTID)
	}
}

// registerAllocObs exposes one space's striped-allocator counters under
// <prefix>alloc.*. All are worker-invariant (the busy vectors are modeled on
// the CP thread); queue depth 0 keeps them registered but near-zero —
// pick_busy_ns then equals picks × CPUPerCacheOp on one vector. dup_skips is
// the staging queue's own count, so it spans ResetMetrics.
func (ag *Aggregate) registerAllocObs(prefix string, as *allocState, qm func() shardq.Metrics) {
	ag.reg.CounterFunc(prefix+"alloc.picks", func() uint64 { return as.picks })
	ag.reg.CounterFunc(prefix+"alloc.local_picks", func() uint64 { return as.localPicks })
	ag.reg.CounterFunc(prefix+"alloc.refill_stalls", func() uint64 { return as.stalls })
	ag.reg.CounterFunc(prefix+"alloc.staged_entries", func() uint64 { return as.staged })
	ag.reg.CounterFunc(prefix+"alloc.dup_skips", func() uint64 { return qm().DupSkips })
	ag.reg.CounterFunc(prefix+"alloc.pick_busy_ns", func() uint64 { return uint64(as.busyTotal()) })
	ag.reg.CounterFunc(prefix+"alloc.refill_busy_ns", func() uint64 { return uint64(as.refillBusy) })
	ag.reg.CounterFunc(prefix+"alloc.stall_busy_ns", func() uint64 { return uint64(as.stallBusy) })
}

// registerSystemObs exposes the System's cumulative counters under wafl.*.
// These are the derived views CountersFromSnapshot reconstructs.
func (s *System) registerSystemObs() {
	reg := s.Agg.reg
	reg.CounterFunc("wafl.ops", func() uint64 { return s.c.Ops })
	reg.CounterFunc("wafl.mod_ops", func() uint64 { return s.c.ModOps })
	reg.CounterFunc("wafl.cps", func() uint64 { return s.c.CPs })
	reg.CounterFunc("wafl.cpu_ns", func() uint64 { return uint64(s.c.CPUTime) })
	reg.CounterFunc("wafl.cache_cpu_ns", func() uint64 { return uint64(s.c.CacheCPUTime) })
	reg.CounterFunc("wafl.metafile_pages", func() uint64 { return s.c.MetafilePages })
	reg.CounterFunc("wafl.topaa_blocks", func() uint64 { return s.c.TopAABlocks })
	reg.CounterFunc("wafl.device_busy_ns", func() uint64 { return uint64(s.c.DeviceBusy) })
	reg.CounterFunc("wafl.blocks_written", func() uint64 { return s.c.BlocksWritten })
	reg.CounterFunc("wafl.blocks_freed", func() uint64 { return s.c.BlocksFreed })
	reg.VolatileCounterFunc("wafl.cp_flush_wall_ns", func() uint64 { return uint64(s.cpWall) })
	// Pipelined-CP accounting. Generations is worker-invariant; the wall
	// accumulators are modeled makespans and vary with Workers, so they are
	// volatile (excluded from StableSnapshot) like cp_flush_wall_ns.
	reg.CounterFunc("cp.pipeline.generations", func() uint64 { return s.pipe.generations })
	reg.VolatileCounterFunc("cp.pipeline.alloc_wall_ns", func() uint64 { return uint64(s.pipe.allocWall) })
	reg.VolatileCounterFunc("cp.pipeline.flush_wall_ns", func() uint64 { return uint64(s.pipe.flushWall) })
	reg.VolatileCounterFunc("cp.pipeline.pipelined_wall_ns", func() uint64 { return uint64(s.pipe.pipedWall) })
	reg.VolatileCounterFunc("cp.pipeline.serial_wall_ns", func() uint64 { return uint64(s.pipe.serialWall) })
}

// attributeWrites feeds the write-side observers for one committed
// generation: the latency SLI, the per-stage attribution accumulators, and
// the pending write traces. Every block the generation committed shares its
// worker-invariant modeled cost (device time, metafile CPU, the alloc
// stage's virtual-scan and cache CPU carried in gen, the fold's cache CPU)
// evenly, on top of the per-op base CPU charge. FlushWall is deliberately
// excluded: it varies with worker width, and the SLO engine requires
// invariant inputs.
//
// The per-block share is split by stage in the same proportions as the CP
// cost it came from, with the device stage absorbing the integer rounding
// remainder: the stages then sum to perBlock exactly, so the attribution
// accumulators reconcile with the histogram total to the nanosecond
// (optrace.attr_coverage == 1.0). The float64 scaling is deterministic —
// IEEE ops on worker-invariant integers. gBusy is the per-group device busy
// snapshotted before the flush (nil when no trace is pending).
func (s *System) attributeWrites(gen *cpGen, deviceBusy, metaNS, foldCache time.Duration, gBusy []time.Duration) {
	if gen.totalBlocks == 0 {
		return
	}
	cacheCPU := gen.allocCache + foldCache
	cpCost := deviceBusy + metaNS + gen.allocScan + cacheCPU
	cpPer := uint64(cpCost) / gen.totalBlocks
	base := uint64(CPUBasePerOp)
	perBlock := base + cpPer
	var metaPer, scanPer, cachePer, devPer uint64
	if cpCost > 0 {
		fc := float64(cpPer) / float64(cpCost)
		metaPer = uint64(fc * float64(metaNS))
		scanPer = uint64(fc * float64(gen.allocScan))
		cachePer = uint64(fc * float64(cacheCPU))
		devPer = cpPer - metaPer - scanPer - cachePer
	}
	for _, v := range s.Agg.vols {
		if n := gen.blocks(v); n > 0 {
			sp := v.space
			sp.lat.ObserveN(perBlock, n)
			sp.attr[optrace.StageBase] += n * base
			sp.attr[optrace.StageDevice] += n * devPer
			sp.attr[optrace.StageMetafile] += n * metaPer
			sp.attr[optrace.StageScan] += n * scanPer
			sp.attr[optrace.StageCache] += n * cachePer
		}
	}
	// Record the pending write traces: one per sampled (volume, CP) batch,
	// span durations from the same stage split the accumulators used, plus
	// a zero-duration allocator annotation (pick provenance, stall/refill
	// activity) and per-group flush leaf spans scaled to the op's device
	// share.
	for _, v := range s.Agg.vols {
		if gen.blocks(v) == 0 || !gen.cands[v.index].armed {
			continue
		}
		c := &gen.cands[v.index]
		sp := v.space
		rec, slow := sp.tr.Decide(c.sampled, perBlock)
		if !rec {
			continue
		}
		var flushTotal time.Duration
		for gi, g := range s.Agg.groups {
			flushTotal += g.deviceBusy - gBusy[gi]
		}
		var leaves []optrace.Span
		if devPer > 0 && flushTotal > 0 {
			for gi, g := range s.Agg.groups {
				if d := g.deviceBusy - gBusy[gi]; d > 0 {
					leaves = append(leaves, optrace.Span{
						Name:  fmt.Sprintf("rg%d", g.Index),
						DurNS: uint64(float64(devPer) * float64(d) / float64(flushTotal)),
					})
				}
			}
		}
		pk := sp.lastPick
		alloc := optrace.Span{
			Name: "alloc",
			Detail: fmt.Sprintf("aa=%d score=%d runner_up=%d reason=%s stalls=%d refills=%d",
				pk.aa, pk.score, pk.runner, pk.reason,
				sp.as.stalls-c.stalls0, sp.replenishes-c.replenishes0),
		}
		if d := sp.as.stallBusy - c.stallBusy0; d > 0 {
			alloc.Children = append(alloc.Children, optrace.Span{
				Name: "stall", Detail: fmt.Sprintf("busy_ns=%d", d)})
		}
		if d := sp.as.refillBusy - c.refillBusy0; d > 0 {
			alloc.Children = append(alloc.Children, optrace.Span{
				Name: "refill", Detail: fmt.Sprintf("busy_ns=%d", d)})
		}
		sp.tr.Add(optrace.Trace{
			ID: c.id, Kind: optrace.KindWrite.String(), Seq: c.seq, CP: s.c.CPs,
			AtNS:  int64(s.c.DeviceBusy + s.c.CPUTime),
			LatNS: perBlock, Blocks: gen.blocks(v), Slow: slow,
			Spans: []optrace.Span{
				{Name: optrace.StageBase.String(), DurNS: base},
				alloc,
				{Name: optrace.StageDevice.String(), DurNS: devPer, Children: leaves},
				{Name: optrace.StageMetafile.String(), DurNS: metaPer},
				{Name: optrace.StageScan.String(), DurNS: scanPer},
				{Name: optrace.StageCache.String(), DurNS: cachePer},
			},
		})
	}
}

// CountersFromSnapshot reconstructs the cumulative Counters from a registry
// snapshot. The derived-view equivalence test asserts this equals
// System.Counters() exactly — the registry and the struct can never drift
// because both read the same storage.
func CountersFromSnapshot(snap obs.Snapshot) Counters {
	return Counters{
		Ops:           snap.Counter("wafl.ops"),
		ModOps:        snap.Counter("wafl.mod_ops"),
		CPs:           snap.Counter("wafl.cps"),
		CPUTime:       time.Duration(snap.Counter("wafl.cpu_ns")),
		CacheCPUTime:  time.Duration(snap.Counter("wafl.cache_cpu_ns")),
		MetafilePages: snap.Counter("wafl.metafile_pages"),
		TopAABlocks:   snap.Counter("wafl.topaa_blocks"),
		DeviceBusy:    time.Duration(snap.Counter("wafl.device_busy_ns")),
		BlocksWritten: snap.Counter("wafl.blocks_written"),
		BlocksFreed:   snap.Counter("wafl.blocks_freed"),
	}
}

// CPStatsFromRegistry reconstructs the cumulative CP totals from the
// registry — the sum of every CPStats a committed generation returned.
func CPStatsFromRegistry(reg *obs.Registry) CPStats {
	snap := reg.Snapshot()
	return CPStats{
		MetafilePagesAggregate: int(snap.Counter("cp.metafile_pages_agg")),
		MetafilePagesVols:      int(snap.Counter("cp.metafile_pages_vols")),
		DeviceBusy:             time.Duration(snap.Counter("cp.device_busy_ns")),
		FlushWall:              time.Duration(snap.Counter("cp.flush_wall_ns")),
		TopAABlocks:            int(snap.Counter("cp.topaa_blocks")),
	}
}
