package wafl

import (
	"fmt"

	"waflfs/internal/aa"
	"waflfs/internal/heapcache"
)

// Mount-time scrub ("wafliron-lite", §3.4): after a Remount rebuilds the AA
// caches — from TopAA metafile seeds, RAID-reconstructed blocks, or bitmap
// walks — Scrub re-derives every cached score from the bitmap metafiles, the
// ground truth shadow paging keeps consistent across any crash, and reports
// each space's agreement. A divergence means a recovery path produced a cache
// that silently disagrees with the file system's real free space: the failure
// class the crash-matrix experiment exists to prove absent.
//
// The scrub is purely observational (no modeled CPU or device cost) and
// accounts for in-flight allocator state, so it is also valid mid-workload:
// between CPs the invariant is bitmapScore == cacheScore + pendingDelta for
// every tracked AA, because allocations and frees move the bitmap and the
// delta together while cache scores fold only at the CP boundary.

// SpaceScrub is one space's verification result.
type SpaceScrub struct {
	// Space names the scrubbed space: a group's TopAA key ("rg<N>"), a
	// volume name, or the object pool's key.
	Space string
	// Checked counts the cache entries (RAID-aware) or tracked AAs
	// (RAID-agnostic) whose scores were re-derived from the bitmap.
	Checked int
	// Divergence is empty when the cache agrees with the bitmap, else a
	// description of the first disagreement found — a silent-divergence
	// failure.
	Divergence string
}

// ScrubReport collects every space's scrub result, in deterministic order
// (groups by index, then volumes in creation order, then the pool).
type ScrubReport struct {
	Spaces []SpaceScrub
}

// Clean reports whether no space diverged.
func (r ScrubReport) Clean() bool { return len(r.Divergent()) == 0 }

// Divergent returns the spaces whose caches disagree with the bitmap.
func (r ScrubReport) Divergent() []SpaceScrub {
	var out []SpaceScrub
	for _, s := range r.Spaces {
		if s.Divergence != "" {
			out = append(out, s)
		}
	}
	return out
}

// String summarizes the report in one line.
func (r ScrubReport) String() string {
	div := r.Divergent()
	if len(div) == 0 {
		total := 0
		for _, s := range r.Spaces {
			total += s.Checked
		}
		return fmt.Sprintf("scrub clean: %d spaces, %d scores verified", len(r.Spaces), total)
	}
	return fmt.Sprintf("scrub DIVERGENT: %d/%d spaces (first: %s: %s)",
		len(div), len(r.Spaces), div[0].Space, div[0].Divergence)
}

// Scrub verifies every AA cache against the bitmap metafiles, groups in
// index order and then the agnostic spaces. Spaces with caching disabled are
// reported with zero checks (there is no cache to diverge).
func (ag *Aggregate) Scrub() ScrubReport {
	var r ScrubReport
	for _, g := range ag.groups {
		r.Spaces = append(r.Spaces, ag.scrubGroup(g))
	}
	for _, sp := range ag.agnosticSpaces() {
		r.Spaces = append(r.Spaces, ag.scrubSpace(sp))
	}
	ag.scrubTot.add(r)
	return r
}

// scrubGroup re-derives every heap-cache entry's score from the bitmap:
// expected == popcount(free) - pendingDelta. A seed-only cache (TopAA seed,
// background fill pending) holds a subset, so only membership scores are
// checked; a fully built cache must also track every AA not held by the
// allocation cursor.
func (ag *Aggregate) scrubGroup(g *Group) SpaceScrub {
	s := SpaceScrub{Space: g.key}
	if !g.cacheEnabled {
		return s
	}
	for _, e := range g.cache.TopK(g.cache.Len()) {
		want := int64(aa.Score(g.topo, ag.bm, e.ID)) - g.pendingDelta(e.ID)
		if int64(e.Score) != want {
			s.Divergence = fmt.Sprintf("AA %d: cached score %d, bitmap-derived %d", e.ID, e.Score, want)
			return s
		}
		s.Checked++
	}
	// Entries staged in shard queues are untracked in the shared heap but
	// obey the same invariant at their frozen scores.
	g.q.Each(func(shard int, e heapcache.Entry) {
		if s.Divergence != "" {
			return
		}
		want := int64(aa.Score(g.topo, ag.bm, e.ID)) - g.pendingDelta(e.ID)
		if int64(e.Score) != want {
			s.Divergence = fmt.Sprintf("shard %d AA %d: staged score %d, bitmap-derived %d",
				shard, e.ID, e.Score, want)
			return
		}
		s.Checked++
	})
	if s.Divergence != "" {
		return s
	}
	held := g.q.HeldCount()
	if !g.seedOnly {
		wantLen := g.topo.NumAAs() - held
		if g.curValid {
			wantLen-- // held by the allocation cursor, reinserted at finishAA
		}
		if g.cache.Len() != wantLen {
			s.Divergence = fmt.Sprintf("cache tracks %d AAs, want %d (+%d staged in shard queues)",
				g.cache.Len(), wantLen, held)
		}
	}
	return s
}

// scrubSpace verifies an HBPS against a bitmap-derived census: every AA's
// expected score (popcount - pendingDelta) is binned, the per-bin counts must
// match the histogram exactly, and every listed AA must sit in the list
// segment of its expected bin. A popped current AA stays histogram-tracked at
// its pop-time score, which equals bitmap - delta throughout (allocations
// move both together), so no special case is needed.
func (ag *Aggregate) scrubSpace(sp *agnosticSpace) SpaceScrub {
	s := SpaceScrub{Space: sp.name}
	if !sp.cacheEnabled {
		return s
	}
	n := sp.topo.NumAAs()
	if got := sp.cache.Total(); got != uint64(n) {
		s.Divergence = fmt.Sprintf("HBPS tracks %d AAs, want %d", got, n)
		return s
	}
	census := make([]uint64, sp.cache.NumBins())
	for id := 0; id < n; id++ {
		want := int64(sp.aaScore(aa.ID(id))) - sp.pendingDelta(aa.ID(id))
		if want < 0 {
			s.Divergence = fmt.Sprintf("AA %d: bitmap-derived score %d is negative", id, want)
			return s
		}
		census[sp.cache.Bin(uint32(want))]++
		s.Checked++
	}
	for b := range census {
		if got := uint64(sp.cache.BinCount(b)); got != census[b] {
			s.Divergence = fmt.Sprintf("bin %d: histogram count %d, bitmap census %d", b, got, census[b])
			return s
		}
	}
	sp.cache.EachListed(func(id aa.ID, b int) {
		if s.Divergence != "" {
			return
		}
		want := int64(sp.aaScore(id)) - sp.pendingDelta(id)
		if wb := sp.cache.Bin(uint32(want)); wb != b {
			s.Divergence = fmt.Sprintf("listed AA %d in bin %d, bitmap-derived bin %d", id, b, wb)
		}
	})
	return s
}
