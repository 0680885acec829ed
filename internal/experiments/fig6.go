package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/parallel"
	"waflfs/internal/stats"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// Fig6Result holds everything §4.1 reports: the latency-vs-throughput
// curves for the cache configurations, the free-space quality of the
// allocator's picks, SSD write amplification, and the CPU economics of the
// FlexVol cache.
type Fig6Result struct {
	// Curves: "both caches", "aggregate AA cache" (FlexVol cache off),
	// "FlexVol AA cache" (aggregate cache off), and "no caches".
	Curves []Curve

	// Aggregate (physical) pick quality: mean free fraction of the AAs the
	// write allocator selected, with the RAID-aware cache on vs off.
	// Paper: 61% vs 46% (§4.1.1).
	AggPickedOn, AggPickedOff float64
	// FlexVol (virtual) pick quality with the HBPS cache on vs off.
	// Paper: 78% vs 61% (§4.1.2).
	VolPickedOn, VolPickedOff float64

	// SSD write amplification over the measurement window with the
	// aggregate cache on vs off. Paper: 1.46 vs 1.77 (§4.1.1).
	WAOn, WAOff float64

	// CPU per op with the FlexVol cache on vs off.
	// Paper: 293µs vs 309µs, a 5.7% reduction (§4.1.2).
	CPUPerOpVolOn, CPUPerOpVolOff time.Duration

	// CacheCPUFraction is cache-maintenance CPU over total CPU with both
	// caches enabled. Paper: ~0.002% per cache (§4.1.2).
	CacheCPUFraction float64

	// Peak-load comparisons (last sweep point).
	// Aggregate cache effect: "both" vs "FlexVol only". Paper: +24%
	// throughput, −18% latency.
	AggThroughputGainPct, AggLatencyChangePct float64
	// FlexVol cache effect: "both" vs "aggregate only". Paper: +8.0%
	// throughput, −8.6% latency.
	VolThroughputGainPct, VolLatencyChangePct float64
}

// Rows is the §4.1 headline set: pick quality, WA and CPU per op with each
// cache on and off, the cache's CPU share, and the peak-load gains.
func (r *Fig6Result) Rows() (ms benchfmt.Metrics) {
	ms.Add("fig6.agg_picked_on", r.AggPickedOn, "frac", 0.10)
	ms.Add("fig6.agg_picked_off", r.AggPickedOff, "frac", 0.10)
	ms.Add("fig6.vol_picked_on", r.VolPickedOn, "frac", 0.10)
	ms.Add("fig6.vol_picked_off", r.VolPickedOff, "frac", 0.10)
	ms.Add("fig6.wa_on", r.WAOn, "x", 0.15)
	ms.Add("fig6.wa_off", r.WAOff, "x", 0.15)
	ms.Add("fig6.cpu_per_op_vol_on", float64(r.CPUPerOpVolOn), "ns", 0.15)
	ms.Add("fig6.cpu_per_op_vol_off", float64(r.CPUPerOpVolOff), "ns", 0.15)
	ms.Add("fig6.cache_cpu_frac", r.CacheCPUFraction, "frac", 0.50)
	ms.Add("fig6.agg_tput_gain_pct", r.AggThroughputGainPct, "pct", 0.35)
	ms.Add("fig6.agg_latency_change_pct", r.AggLatencyChangePct, "pct", 0.35)
	ms.Add("fig6.vol_tput_gain_pct", r.VolThroughputGainPct, "pct", 0.35)
	ms.Add("fig6.vol_latency_change_pct", r.VolLatencyChangePct, "pct", 0.35)
	return append(ms, curvePeaks("fig6", r.Curves)...)
}

// fig6Spec builds the §4.1 configuration: a midrange all-SSD server,
// modeled as two RAID groups of (6+1) SSDs.
func fig6Spec(cfg Config) []wafl.GroupSpec {
	per := cfg.scaled(1<<18, 1<<15)
	g := wafl.GroupSpec{
		DataDevices:      6,
		ParityDevices:    1,
		BlocksPerDevice:  per,
		Media:            aa.MediaSSD,
		EraseBlockBlocks: 512, // 2MiB erase units
		Overprovision:    0.08,
	}
	return []wafl.GroupSpec{g, g}
}

type fig6Run struct {
	curve            Curve
	m                measurement
	wa               float64
	aggPick, volPick float64
	cpuPerOp         time.Duration
	cacheCPUFraction float64
}

func fig6RunOne(cfg Config, label string, aggCache, volCache bool) fig6Run {
	tun := cfg.tunablesNamed("fig6." + label)
	tun.AggregateCacheEnabled = aggCache
	tun.VolCacheEnabled = volCache

	specs := fig6Spec(cfg)
	aggBlocks := 2 * 6 * specs[0].BlocksPerDevice
	lunBlocks := uint64(float64(aggBlocks) * 0.55)
	// Thin provisioning (§3.3.2): the volume's virtual space is well over
	// twice its data, so the volume sits ~40% used and the HBPS has real
	// headroom to find empty virtual AAs.
	volBlocks := lunBlocks * 2

	s := wafl.NewSystem(specs, []wafl.VolSpec{{Name: "vol0", Blocks: volBlocks}}, tun, cfg.Seed)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", lunBlocks)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// Fill to 55% and thoroughly fragment with random overwrites (§4.1),
	// with free-space defragmentation disabled (the cleaner is never run).
	workload.Age(s, []*wafl.LUN{lun}, rng, 1.2)

	// Measurement window: 8KiB random overwrites.
	s.ResetMetrics()
	ftl0 := s.FTLTotals()
	ops := int(cfg.scaled(200_000, 20_000))
	m := measure(s, func() {
		workload.RandomOverwrite(s, []*wafl.LUN{lun}, rng, ops, 2)
		s.CP()
	})
	ftl1 := s.FTLTotals()

	r := fig6Run{curve: curveFrom(label, m, cfg), m: m}
	if dh := ftl1.HostWrites - ftl0.HostWrites; dh > 0 {
		r.wa = float64(ftl1.NANDWrites-ftl0.NANDWrites) / float64(dh)
	}
	var aggSum float64
	var aggN int
	for _, g := range s.Agg.Groups() {
		gm := g.Metrics()
		if gm.PickedScoreFraction > 0 {
			aggSum += gm.PickedScoreFraction
			aggN++
		}
	}
	if aggN > 0 {
		r.aggPick = aggSum / float64(aggN)
	}
	r.volPick = s.Agg.Vols()[0].Metrics().PickedScoreFraction
	r.cpuPerOp = m.Counters.CPUPerOp()
	if m.Counters.CPUTime > 0 {
		r.cacheCPUFraction = float64(m.Counters.CacheCPUTime) / float64(m.Counters.CPUTime)
	}
	return r
}

// RunFig6 regenerates Figure 6 and the §4.1 in-text metrics.
func RunFig6(cfg Config, w io.Writer) *Fig6Result {
	if cfg.DeviceParallel == 0 {
		cfg.DeviceParallel = 4 // enterprise SSDs service many commands at once
	}
	// The four cache configurations are independent arms — each builds its
	// own System and rng from cfg.Seed — so they fan out over the work pool
	// and land in fixed slots.
	arms := []struct {
		label    string
		agg, vol bool
	}{
		{"both", true, true},
		{"agg-only", true, false},
		{"vol-only", false, true},
		{"none", false, false},
	}
	runs := parallel.Map(cfg.Workers, len(arms), func(i int) fig6Run {
		return fig6RunOne(cfg, arms[i].label, arms[i].agg, arms[i].vol)
	})
	both, aggOnly, volOnly, neither := runs[0], runs[1], runs[2], runs[3]

	res := &Fig6Result{
		Curves:           []Curve{both.curve, aggOnly.curve, volOnly.curve, neither.curve},
		AggPickedOn:      both.aggPick,
		AggPickedOff:     volOnly.aggPick,
		VolPickedOn:      both.volPick,
		VolPickedOff:     aggOnly.volPick,
		WAOn:             both.wa,
		WAOff:            volOnly.wa,
		CPUPerOpVolOn:    both.cpuPerOp,
		CPUPerOpVolOff:   aggOnly.cpuPerOp,
		CacheCPUFraction: both.cacheCPUFraction,
	}
	bp, ap, vp := both.curve.Peak(), aggOnly.curve.Peak(), volOnly.curve.Peak()
	res.AggThroughputGainPct = gain(bp.Throughput, vp.Throughput)
	res.AggLatencyChangePct = gain(bp.LatencyMs, vp.LatencyMs)
	res.VolThroughputGainPct = gain(bp.Throughput, ap.Throughput)
	res.VolLatencyChangePct = gain(bp.LatencyMs, ap.LatencyMs)

	printCurves(w, "Fig 6: latency vs throughput (8KiB random overwrites, aged all-SSD aggregate)", res.Curves)
	tb := stats.Table{Title: "Fig 6 / §4.1 headline metrics", Columns: []string{"metric", "paper", "measured"}}
	tb.AddRow("picked AA free fraction, aggregate cache on", "61%", fmt.Sprintf("%.0f%%", 100*res.AggPickedOn))
	tb.AddRow("picked AA free fraction, aggregate cache off", "46%", fmt.Sprintf("%.0f%%", 100*res.AggPickedOff))
	tb.AddRow("picked AA free fraction, FlexVol cache on", "78%", fmt.Sprintf("%.0f%%", 100*res.VolPickedOn))
	tb.AddRow("picked AA free fraction, FlexVol cache off", "61%", fmt.Sprintf("%.0f%%", 100*res.VolPickedOff))
	tb.AddRow("SSD write amplification, aggregate cache on", "1.46", fmt.Sprintf("%.2f", res.WAOn))
	tb.AddRow("SSD write amplification, aggregate cache off", "1.77", fmt.Sprintf("%.2f", res.WAOff))
	tb.AddRow("aggregate cache peak throughput gain", "+24%", fmt.Sprintf("%+.1f%%", res.AggThroughputGainPct))
	tb.AddRow("aggregate cache peak latency change", "-18%", fmt.Sprintf("%+.1f%%", res.AggLatencyChangePct))
	tb.AddRow("FlexVol cache peak throughput gain", "+8.0%", fmt.Sprintf("%+.1f%%", res.VolThroughputGainPct))
	tb.AddRow("FlexVol cache peak latency change", "-8.6%", fmt.Sprintf("%+.1f%%", res.VolLatencyChangePct))
	tb.AddRow("CPU/op, FlexVol cache on", "293us", res.CPUPerOpVolOn.String())
	tb.AddRow("CPU/op, FlexVol cache off", "309us", res.CPUPerOpVolOff.String())
	tb.AddRow("CPU/op reduction from FlexVol cache", "5.7%",
		fmt.Sprintf("%.1f%%", -gain(float64(res.CPUPerOpVolOn), float64(res.CPUPerOpVolOff))))
	tb.AddRow("cache maintenance CPU fraction", "~0.004%", fmt.Sprintf("%.4f%%", 100*res.CacheCPUFraction))
	fmt.Fprintln(w, tb.String())
	return res
}
