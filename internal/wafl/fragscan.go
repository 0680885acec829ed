package wafl

import (
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/obs/fragscan"
)

// Allocation-quality scanning. With ObsOptions.Frag set, every CP boundary
// (and any on-demand System.FragScan call) runs the fragscan analyzer over
// each space the aggregate owns: one RAID-aware target per group, one HBPS
// target per volume, and one for the object pool. The scans read bitmaps
// through the cheap hooks only — no ChargeScan, no counter increments — so
// enabling them changes no modeled clock and no allocator decision, and the
// recorded streams stay byte-identical at any worker count.

// fragSpace is what a group or an agnostic space keeps between scans: the
// names and device spans fixed for its life, built at its first scan, and its
// picked-quality counters as of the previous scan, so each report carries
// the picks of its own CP window.
type fragSpace struct {
	name   string
	series [len(fragSeries)]string // name + ".frag." + fragSeries[i]
	spans  []block.Range
	sum    float64
	count  uint64
}

// fragSeries are the per-space series a time-series store gets from each
// report: three per-AA free-fraction deciles, the overall free fraction and
// the pick-weighted one.
var fragSeries = [...]string{"p10", "p50", "p90", "free_frac", "picked_free_frac"}

func newFragSpace(name string, spans []block.Range) *fragSpace {
	f := &fragSpace{name: name, spans: spans}
	for i, s := range fragSeries {
		f.series[i] = name + ".frag." + s
	}
	return f
}

// pickedDelta converts absolute picked counters into a since-last-scan
// window, tolerating counter resets (ResetMetrics zeroes the sums).
func (f *fragSpace) pickedDelta(sum float64, count uint64) (uint64, float64) {
	lastSum, lastCount := f.sum, f.count
	if count < lastCount {
		lastSum, lastCount = 0, 0
	}
	f.sum, f.count = sum, count
	picks := count - lastCount
	if picks == 0 {
		return 0, 0
	}
	return picks, (sum - lastSum) / float64(picks)
}

// fragTargets builds one scan target per space, in a fixed order (groups by
// index, volumes in creation order, then the pool) so recorded sequence
// numbers are deterministic, and returns each target's fragSpace beside it.
func (ag *Aggregate) fragTargets() ([]fragscan.Target, []*fragSpace) {
	name := ag.obsOpts.Name
	n := len(ag.groups) + len(ag.agnosticSpaces())
	out, spaces := make([]fragscan.Target, 0, n), make([]*fragSpace, 0, n)
	for _, g := range ag.groups {
		if g.frag == nil {
			spans := make([]block.Range, g.geo.DataDevices)
			for d := range spans {
				spans[d] = g.geo.DeviceRange(d)
			}
			g.frag = newFragSpace(name+"."+g.key, spans)
		}
		t := fragscan.Target{
			Space:       g.frag.name,
			Kind:        fragscan.KindRAID,
			Topo:        g.topo,
			Bits:        ag.bm,
			DeviceSpans: g.frag.spans,
			CacheBins:   heapBins(g, fragscan.DefaultAABuckets),
		}
		t.Picks, t.PickedFreeFrac = g.frag.pickedDelta(g.pickedScoreSum, g.pickedCount)
		out, spaces = append(out, t), append(spaces, g.frag)
	}
	for _, sp := range ag.agnosticSpaces() {
		if sp.frag == nil {
			sp.frag = newFragSpace(name+"."+sp.stream, nil)
		}
		out, spaces = append(out, ag.agnosticTarget(sp)), append(spaces, sp.frag)
	}
	return out, spaces
}

// agnosticTarget is the scan target of a space whose frag is set.
func (ag *Aggregate) agnosticTarget(s *agnosticSpace) fragscan.Target {
	bins := s.cache.BinSnapshot()
	cacheBins := make([]uint64, len(bins))
	for i, c := range bins {
		cacheBins[i] = uint64(c)
	}
	t := fragscan.Target{
		Space:     s.frag.name,
		Kind:      fragscan.KindHBPS,
		Topo:      s.topo,
		Bits:      s.bm,
		CacheBins: cacheBins,
	}
	t.Picks, t.PickedFreeFrac = s.frag.pickedDelta(s.pickedScoreSum, s.pickedCount)
	return t
}

// heapBins buckets the heapcache's cached scores by free fraction — the
// cache's coarse view of the same distribution fragscan derives from the
// bitmap. Bucketing makes the result independent of internal heap order.
func heapBins(g *Group, buckets int) []uint64 {
	bins := make([]uint64, buckets)
	for id := aa.ID(0); int(id) < g.topo.NumAAs(); id++ {
		cap := aa.Capacity(g.topo, id)
		if cap == 0 || !g.cache.Tracked(id) {
			continue
		}
		b := int(float64(g.cache.Score(id)) / float64(cap) * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		bins[b]++
	}
	return bins
}

// FragScan scans every space at the given CP ordinal, records the reports
// into ObsOptions.Frag (when set), and returns them in target order.
func (ag *Aggregate) FragScan(cp uint64) []fragscan.Report {
	reports, _ := ag.fragScan(cp)
	return reports
}

func (ag *Aggregate) fragScan(cp uint64) ([]fragscan.Report, []*fragSpace) {
	targets, spaces := ag.fragTargets()
	reports := make([]fragscan.Report, len(targets))
	for i, t := range targets {
		reports[i] = fragscan.Scan(t, cp)
	}
	if rec := ag.obsOpts.Frag; rec != nil {
		for _, rep := range reports {
			rec.Record(rep)
		}
	}
	return reports, spaces
}

// FragScan runs an on-demand allocation-quality scan of every space,
// stamped with the current CP count. CP-boundary scans use the same path.
func (s *System) FragScan() []fragscan.Report {
	return s.Agg.FragScan(s.c.CPs)
}

// maybeFragScan is the CP-boundary hook: scan when a frag recorder or a
// time-series store is attached and this CP ordinal matches the FragEvery
// cadence. With a store attached, each report's headline numbers (see
// fragSeries) feed per-space series the live viewer renders, stamped at the
// modeled clock now.
func (s *System) maybeFragScan(now time.Duration) {
	o := &s.Agg.obsOpts
	if o.Frag == nil && o.TSDB == nil {
		return
	}
	if o.FragEvery > 1 && s.c.CPs%uint64(o.FragEvery) != 0 {
		return
	}
	reports, spaces := s.Agg.fragScan(s.c.CPs)
	if ts := o.TSDB; ts != nil {
		for i, rep := range reports {
			vals := [len(fragSeries)]float64{rep.Deciles[1], rep.Deciles[5], rep.Deciles[9], rep.FreeFrac(), rep.PickedFreeFrac}
			for j, name := range spaces[i].series {
				ts.Observe(name, s.c.CPs, now, vals[j])
			}
		}
	}
}
