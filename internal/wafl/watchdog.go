package wafl

import (
	"fmt"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/heapcache"
	"waflfs/internal/obs"
	"waflfs/internal/shardq"
)

// Online invariant watchdogs: cheap per-CP monitors that keep the
// mount-time scrub's guarantees live between explicit Scrub() calls.
// Three invariant classes are watched:
//
//   - Free-block conservation across delayed frees: per volume, the
//     virtual bitmap's used count must equal the refcounted written blocks
//     plus the delayed-free queue (delayed frees keep the bit set while
//     the refcount entry is already gone).
//
//   - Cached-score-vs-bitmap spot checks on a rotating AA sample: the
//     scrub invariant (bitmapScore == cachedScore + pendingDelta for heap
//     caches; listed bin == Bin(bitmapScore - delta) for HBPS) verified
//     over a small window that rotates each CP, so full coverage accrues
//     over time at O(sample) popcounts per CP instead of O(space).
//
//   - Pick-quality floor at pick time: a heap pick's cached score must
//     equal the bitmap-derived score minus the pending delta exactly; an
//     HBPS pick must fall within one bin of the best tracked bin — the
//     paper's §3.3.2 near-best bound.
//
//   - Shard-ledger consistency (AllocShards > 1): every entry held in a
//     shard queue mid-CP satisfies frozenScore == bitmapScore − pending
//     (pending spans the shared delta ledger plus every shard ledger), and
//     after the CP-boundary fold every ledger is empty — a stale merge
//     leaves residue or a score mismatch, and this class catches both.
//
//   - Generation states (depth 2, Tunables.Pipeline): the flush banks must
//     be empty whenever no generation is in flight (a leftover sealed
//     delta or write set means a generation was dropped mid-commit), an
//     in-flight generation's sealed write set must still be allocated in
//     the bitmap, and no shard queue may hold a batch stamped with a
//     generation newer than the current one.
//
//   - Delayed-free generations (Pipeline + DelayedVirtFrees): each queue
//     (open gen n+1 and sealed gen n) must self-agree — its count equals
//     its per-AA lists and its HBPS tracks exactly its AAs — so scores
//     stay consistent across the seal-time handoff, and the conservation
//     check above extends to bitmap used = refcounts + delayed(gen n) +
//     delayed(gen n+1).
//
// Violations bump watchdog.* counters (always registered, so metric
// streams keep their shape whether or not the monitors run) and append to
// a bounded description log; the in-package tests set watchdogState.strict,
// which promotes them to panics. All checks are purely observational — no
// modeled cost — and are serial and deterministic, so enabling them
// preserves the Workers=1 vs N equivalence contract.

// watchdogLogBound caps the retained violation descriptions.
const watchdogLogBound = 16

// watchdogSample is the rotating per-space sample size of the cached-score
// spot check.
const watchdogSample = 8

type watchdogState struct {
	enabled bool
	// strict promotes any violation to a panic, and sample widens the
	// rotating spot check; only the in-package tests set either.
	strict bool
	sample int

	checks     *obs.Counter
	violations *obs.Counter
	consChecks *obs.Counter
	consViol   *obs.Counter
	scoreCheck *obs.Counter
	scoreViol  *obs.Counter
	pickChecks *obs.Counter
	pickViol   *obs.Counter
	ledgerChk  *obs.Counter
	ledgerViol *obs.Counter
	genChk     *obs.Counter
	genViol    *obs.Counter
	dfgenChk   *obs.Counter
	dfgenViol  *obs.Counter

	log []string
}

// initWatchdogs registers the watchdog.* counters (unconditionally — the
// metric shape must not depend on whether the monitors run) and arms the
// monitors when requested. Called from initObs.
func (ag *Aggregate) initWatchdogs(o ObsOptions) {
	ag.wd = watchdogState{
		enabled:    o.Watchdogs,
		sample:     watchdogSample,
		checks:     ag.reg.Counter("watchdog.checks"),
		violations: ag.reg.Counter("watchdog.violations"),
		consChecks: ag.reg.Counter("watchdog.conservation_checks"),
		consViol:   ag.reg.Counter("watchdog.conservation_violations"),
		scoreCheck: ag.reg.Counter("watchdog.score_checks"),
		scoreViol:  ag.reg.Counter("watchdog.score_violations"),
		pickChecks: ag.reg.Counter("watchdog.pick_checks"),
		pickViol:   ag.reg.Counter("watchdog.pick_violations"),
		ledgerChk:  ag.reg.Counter("watchdog.ledger_checks"),
		ledgerViol: ag.reg.Counter("watchdog.ledger_violations"),
		genChk:     ag.reg.Counter("watchdog.gen_checks"),
		genViol:    ag.reg.Counter("watchdog.gen_violations"),
		dfgenChk:   ag.reg.Counter("watchdog.dfgen_checks"),
		dfgenViol:  ag.reg.Counter("watchdog.dfgen_violations"),
	}
}

// WatchdogViolations returns the retained violation descriptions (at most
// watchdogLogBound; the watchdog.violations counter has the full count).
func (ag *Aggregate) WatchdogViolations() []string {
	return append([]string(nil), ag.wd.log...)
}

func (w *watchdogState) violate(class *obs.Counter, format string, args ...interface{}) {
	w.violations.Inc()
	class.Inc()
	msg := fmt.Sprintf(format, args...)
	if len(w.log) < watchdogLogBound {
		w.log = append(w.log, msg)
	}
	if w.strict {
		panic("wafl: watchdog: " + msg)
	}
}

// pickCheckGroup is the RAID-aware pick-quality floor: the popped entry's
// cached score must equal the bitmap truth minus the pending delta.
func (w *watchdogState) pickCheckGroup(g *Group, bm *bitmap.Bitmap, id aa.ID, score uint64) {
	w.checks.Inc()
	w.pickChecks.Inc()
	want := int64(aa.Score(g.topo, bm, id)) - g.pendingDelta(id)
	if int64(score) != want {
		w.violate(w.pickViol, "rg%d pick: AA %d cached score %d, bitmap-derived %d",
			g.Index, id, score, want)
	}
}

// pickCheckSpace is the HBPS pick-quality floor (§3.3.2). The list pops
// from its best listed bin, so the near-best guarantee reduces to the
// popped AA actually belonging in the bin it was listed under: its
// bitmap-derived score (net of pending deltas) must bin exactly to
// claimed, the bin PeekBestBin reported just before the pop. A comparison
// against BestTrackedBin would be unsound mid-CP — AAs popped earlier in
// the same CP stay histogram-tracked at their stale pop-time scores until
// the boundary fold.
func (w *watchdogState) pickCheckSpace(sp *agnosticSpace, id aa.ID, claimed int) {
	w.checks.Inc()
	w.pickChecks.Inc()
	want := int64(sp.aaScore(id)) - sp.pendingDelta(id)
	if want < 0 {
		w.violate(w.pickViol, "%s pick: AA %d bitmap-derived score %d is negative",
			sp.name, id, want)
		return
	}
	if claimed < 0 {
		return
	}
	if got := sp.cache.Bin(uint32(want)); got != claimed {
		w.violate(w.pickViol, "%s pick: AA %d listed in bin %d, bitmap-derived bin %d — pick floor broken",
			sp.name, id, claimed, got)
	}
}

// sampleGroup spot-checks a rotating window of the heap cache against the
// bitmap, using the scrub formula. Seed-only caches hold a subset, so only
// tracked membership is checked; the cursor-held AA is skipped (its score
// folds back at finishAA).
func (w *watchdogState) sampleGroup(ag *Aggregate, g *Group) {
	if !g.cacheEnabled {
		return
	}
	n := g.topo.NumAAs()
	if n == 0 {
		return
	}
	k := w.sample
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		id := aa.ID((g.wdCursor + i) % n)
		if !g.cache.Tracked(id) || (g.curValid && id == g.curAA) {
			continue
		}
		w.checks.Inc()
		w.scoreCheck.Inc()
		want := int64(aa.Score(g.topo, ag.bm, id)) - g.pendingDelta(id)
		if got := g.cache.Score(id); int64(got) != want {
			w.violate(w.scoreViol, "rg%d: AA %d cached score %d, bitmap-derived %d",
				g.Index, id, got, want)
		}
	}
	g.wdCursor = (g.wdCursor + k) % n
}

// sampleSpace spot-checks an HBPS: the histogram must track every AA, and
// a rotating window of listed AAs must each sit in the bin of its
// bitmap-derived score (the scrub's listed-placement invariant).
func (w *watchdogState) sampleSpace(sp *agnosticSpace) {
	if !sp.cacheEnabled {
		return
	}
	w.checks.Inc()
	w.scoreCheck.Inc()
	if got, n := sp.cache.Total(), sp.topo.NumAAs(); got != uint64(n) {
		w.violate(w.scoreViol, "%s: HBPS tracks %d AAs, want %d", sp.name, got, n)
		return
	}
	l := sp.cache.ListLen()
	if l == 0 {
		return
	}
	k := w.sample
	if k > l {
		k = l
	}
	for i := 0; i < k; i++ {
		id, bin := sp.cache.ListedAt((sp.wdCursor + i) % l)
		w.checks.Inc()
		w.scoreCheck.Inc()
		want := int64(sp.aaScore(id)) - sp.pendingDelta(id)
		if want < 0 {
			w.violate(w.scoreViol, "%s: listed AA %d bitmap-derived score %d is negative",
				sp.name, id, want)
			continue
		}
		if wb := sp.cache.Bin(uint32(want)); wb != bin {
			w.violate(w.scoreViol, "%s: listed AA %d in bin %d, bitmap-derived bin %d",
				sp.name, id, bin, wb)
		}
	}
	sp.wdCursor = (sp.wdCursor + k) % l
}

// sampleShardsGroup verifies the striped allocator's mid-CP state for one
// RAID group: every entry held in a shard queue must satisfy the frozen-
// score invariant against the bitmap, and — since runWatchdogs executes
// after the CP fold — every shard ledger must be empty. The held set is
// bounded by 2×batch×shards, so the full scan stays O(held) per CP. A space
// without shard ledgers (or without a cache) has nothing to check and bumps
// no counter.
func (w *watchdogState) sampleShardsGroup(ag *Aggregate, g *Group) {
	if !g.cacheEnabled || len(g.as.ledgers) == 0 {
		return
	}
	g.q.Each(func(shard int, e heapcache.Entry) {
		w.checks.Inc()
		w.ledgerChk.Inc()
		want := int64(aa.Score(g.topo, ag.bm, e.ID)) - g.pendingDelta(e.ID)
		if int64(e.Score) != want {
			w.violate(w.ledgerViol,
				"rg%d shard %d: staged AA %d frozen score %d, bitmap-derived %d — stale merge",
				g.Index, shard, e.ID, e.Score, want)
		}
	})
	w.checks.Inc()
	w.ledgerChk.Inc()
	if shard, id, d, ok := g.as.residue(); ok {
		w.violate(w.ledgerViol,
			"rg%d shard %d: ledger still holds %+d for AA %d after the CP fold",
			g.Index, shard, d, id)
	}
}

// sampleShardsSpace is the HBPS counterpart: held IDs carry no frozen
// scores (the histogram stays authoritative), so the check is the pick
// floor — bitmap-derived score net of pending deltas must be non-negative —
// plus the post-fold empty-ledger requirement.
func (w *watchdogState) sampleShardsSpace(sp *agnosticSpace) {
	if !sp.cacheEnabled || len(sp.as.ledgers) == 0 {
		return
	}
	sp.q.Each(func(shard int, id aa.ID) {
		w.checks.Inc()
		w.ledgerChk.Inc()
		if want := int64(sp.aaScore(id)) - sp.pendingDelta(id); want < 0 {
			w.violate(w.ledgerViol,
				"%s shard %d: staged AA %d bitmap-derived score %d is negative — stale merge",
				sp.name, shard, id, want)
		}
	})
	w.checks.Inc()
	w.ledgerChk.Inc()
	if shard, id, d, ok := sp.as.residue(); ok {
		w.violate(w.ledgerViol,
			"%s shard %d: ledger still holds %+d for AA %d after the CP fold",
			sp.name, shard, d, id)
	}
}

// checkGenStates verifies the pipelined double-buffer invariants. With no
// generation in flight every sealed bank must be empty (residue means a
// generation was dropped mid-commit); with one in flight, a spot sample of
// its sealed write set must still be allocated in the aggregate bitmap. In
// both states no shard queue may hold a batch stamped with a generation
// newer than the current one.
func (w *watchdogState) checkGenStates(s *System) {
	ag := s.Agg
	inFlight := s.pipe.inFlight
	for _, g := range ag.groups {
		w.checks.Inc()
		w.genChk.Inc()
		if !inFlight && (g.flushDeltas.len() > 0 || len(g.flushWrites) > 0 || len(g.flushCS) > 0) {
			w.violate(w.genViol,
				"rg%d: sealed bank not empty with no generation in flight (%d deltas, %d writes, %d checksums)",
				g.Index, g.flushDeltas.len(), len(g.flushWrites), len(g.flushCS))
		}
		if inFlight && len(g.flushWrites) > 0 {
			stride := len(g.flushWrites) / w.sample
			if stride < 1 {
				stride = 1
			}
			for i := 0; i < len(g.flushWrites); i += stride {
				w.checks.Inc()
				w.genChk.Inc()
				if v := g.flushWrites[i]; !ag.bm.Test(v) {
					w.violate(w.genViol, "rg%d: in-flight sealed write %v not allocated in bitmap", g.Index, v)
				}
			}
		}
		checkHeldGens(w, g.q, g.label)
	}
	for _, sp := range ag.agnosticSpaces() {
		w.checks.Inc()
		w.genChk.Inc()
		if !inFlight && sp.flushDeltas.len() > 0 {
			w.violate(w.genViol, "%s: %d sealed deltas with no generation in flight", sp.name, sp.flushDeltas.len())
		}
		checkHeldGens(w, sp.q, sp.label)
	}
}

// checkHeldGens verifies that no batch a pick queue holds is stamped with a
// generation newer than the queue's current one. label names the space, and
// is only called on a violation.
func checkHeldGens[E any](w *watchdogState, q *shardq.Queue[E], label func() string) {
	cur := q.Gen()
	q.HeldGens(func(shard int, gen uint64) {
		w.checks.Inc()
		w.genChk.Inc()
		if gen > cur {
			w.violate(w.genViol, "%s shard %d: held batch stamped gen %d, current gen %d — staging from the future",
				label(), shard, gen, cur)
		}
	})
}

func (g *Group) label() string          { return g.key }
func (sp *agnosticSpace) label() string { return sp.name }

// checkDFQueue verifies one delayed-free queue's self-consistency across
// the generation handoff: its count must equal its queued blocks and its
// HBPS must track exactly its AAs — absorb() moving whole per-AA bulks
// preserves both, and any drift here means reclamation order (and hence
// the budget's spending) has decoupled from the queue's truth.
func (w *watchdogState) checkDFQueue(vol, gen string, d *delayedFrees) {
	if d == nil {
		return
	}
	w.checks.Inc()
	w.dfgenChk.Inc()
	queued, aas := 0, 0
	for _, vs := range d.pending {
		if len(vs) > 0 {
			queued += len(vs)
			aas++
		}
	}
	if queued != d.count {
		w.violate(w.dfgenViol, "volume %q delayed(%s): count %d, queued blocks %d", vol, gen, d.count, queued)
	}
	w.checks.Inc()
	w.dfgenChk.Inc()
	if got := d.cache.Total(); got != uint64(aas) {
		w.violate(w.dfgenViol, "volume %q delayed(%s): HBPS tracks %d AAs, queue holds %d", vol, gen, got, aas)
	}
}

// runWatchdogs executes the per-CP monitors. Called from the CP tail, after
// the flush stage has folded the sealed deltas, so cached scores are fresh
// except for the cursor-held AAs the checks skip (and, at depth 2, the open
// generation's deltas, which pendingDelta accounts for).
func (s *System) runWatchdogs() {
	w := &s.Agg.wd
	if !w.enabled {
		return
	}
	ag := s.Agg
	for _, v := range ag.vols {
		w.checks.Inc()
		w.consChecks.Inc()
		want := uint64(v.live)
		delayed := uint64(0)
		if v.space.delayed != nil {
			delayed = uint64(v.space.delayed.count)
		}
		if v.space.delayedSealed != nil {
			// Pipelined: frees queued in the sealed (flushing) generation
			// also hold their bits — bitmap used = refcounts + delayed(n) +
			// delayed(n+1).
			delayed += uint64(v.space.delayedSealed.count)
		}
		want += delayed
		if got := v.bm.Used(); got != want {
			w.violate(w.consViol,
				"volume %q: bitmap used %d, refcounted %d + delayed %d — free blocks not conserved",
				v.Name, got, v.live, delayed)
		}
	}
	for _, g := range ag.groups {
		w.sampleGroup(ag, g)
		w.sampleShardsGroup(ag, g)
	}
	for _, sp := range ag.agnosticSpaces() {
		w.sampleSpace(sp)
		w.sampleShardsSpace(sp)
	}
	// The generation monitors run only at depth 2 — at depth 1 the banks
	// are trivially empty here — so the depth-1 watchdog.* streams keep
	// their exact pre-pipeline shape.
	if s.tun.Pipeline {
		w.checkGenStates(s)
		for _, v := range ag.vols {
			w.checkDFQueue(v.Name, "open", v.space.delayed)
			w.checkDFQueue(v.Name, "sealed", v.space.delayedSealed)
		}
	}
}
