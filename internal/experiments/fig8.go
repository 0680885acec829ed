package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/parallel"
	"waflfs/internal/stats"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// Fig8Result reproduces §4.3's SSD AA-sizing experiment: an aged all-SSD
// system run with the historical HDD AA size (4k stripes, smaller than the
// drive's erase unit) versus an AA sized at a multiple of the erase-block
// size. The paper reports 26% higher throughput, 21% lower latency, and
// halved write amplification for the large AA.
type Fig8Result struct {
	Curves []Curve // "hdd-aa", "large-aa"
	// Write amplification over the measurement window.
	WASmall, WALarge float64
	// Peak-load comparison (large vs small).
	ThroughputGainPct, LatencyChangePct float64
}

// Rows is the §4.3 SSD headline set: WA per AA sizing and the peak-load
// gain of the erase-unit-sized AA.
func (r *Fig8Result) Rows() (ms benchfmt.Metrics) {
	ms.Add("fig8.wa_small", r.WASmall, "x", 0.15)
	ms.Add("fig8.wa_large", r.WALarge, "x", 0.15)
	ms.Add("fig8.tput_gain_pct", r.ThroughputGainPct, "pct", 0.35)
	ms.Add("fig8.latency_change_pct", r.LatencyChangePct, "pct", 0.35)
	return append(ms, curvePeaks("fig8", r.Curves)...)
}

// fig8EraseUnit is the SSD's effective erase unit in blocks (32MiB — the
// multi-die superblock granularity at which modern FTLs erase), larger than
// the historical 4k-stripe AA so that Fig. 4(A)'s partial-erase-block
// problem manifests. When the experiment is scaled down, the erase unit and
// AA sizes scale with the device so the ratios (64 erase units per device,
// HDD AA = half an erase unit) are preserved.
const fig8EraseUnit = 8192

// fig8Sizes returns the scaled device, erase-unit, and HDD-AA sizes.
func fig8Sizes(cfg Config) (per, eraseUnit, hddAA uint64) {
	per = cfg.scaled(1<<19, 1<<16)
	eraseUnit = per / 64
	hddAA = eraseUnit / 2
	return per, eraseUnit, hddAA
}

func fig8RunOne(cfg Config, label string, useHDDAA bool) (Curve, float64) {
	tun := cfg.tunablesNamed("fig8." + label)
	per, eraseUnit, hddAA := fig8Sizes(cfg)
	stripesPerAA := uint64(0) // media-derived: 4x erase unit
	if useHDDAA {
		stripesPerAA = hddAA
	}
	spec := wafl.GroupSpec{
		DataDevices:      6,
		ParityDevices:    1,
		BlocksPerDevice:  per,
		Media:            aa.MediaSSD,
		EraseBlockBlocks: eraseUnit,
		StripesPerAA:     stripesPerAA,
		Overprovision:    0.14,
	}
	aggBlocks := 6 * per
	lunBlocks := uint64(float64(aggBlocks) * 0.85)

	s := wafl.NewSystem([]wafl.GroupSpec{spec},
		[]wafl.VolSpec{{Name: "vol0", Blocks: lunBlocks * 3 / 2}}, tun, cfg.Seed)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", lunBlocks)
	rng := rand.New(rand.NewSource(cfg.Seed + 3))

	// Age to 85% full with random traffic (§4.3).
	workload.Age(s, []*wafl.LUN{lun}, rng, 0.8)

	s.ResetMetrics()
	ftl0 := s.FTLTotals()
	ops := int(cfg.scaled(250_000, 25_000))
	mix := workload.OLTP{ReadFraction: 0.5, OpBlocks: 1} // 4KiB random reads and writes
	m := measure(s, func() {
		mix.Run(s, []*wafl.LUN{lun}, rng, ops)
		s.CP()
	})
	ftl1 := s.FTLTotals()
	wa := 0.0
	if dh := ftl1.HostWrites - ftl0.HostWrites; dh > 0 {
		wa = float64(ftl1.NANDWrites-ftl0.NANDWrites) / float64(dh)
	}
	return curveFrom(label, m, cfg), wa
}

// RunFig8 regenerates Figure 8.
func RunFig8(cfg Config, w io.Writer) *Fig8Result {
	if cfg.DeviceParallel == 0 {
		cfg.DeviceParallel = 4
	}
	// The two AA sizings are independent arms; fan them out.
	type fig8Run struct {
		curve Curve
		wa    float64
	}
	arms := []struct {
		label    string
		useHDDAA bool
	}{{"hdd-aa", true}, {"large-aa", false}}
	runs := parallel.Map(cfg.Workers, len(arms), func(i int) fig8Run {
		c, wa := fig8RunOne(cfg, arms[i].label, arms[i].useHDDAA)
		return fig8Run{c, wa}
	})
	small, waSmall := runs[0].curve, runs[0].wa
	large, waLarge := runs[1].curve, runs[1].wa

	res := &Fig8Result{
		Curves:  []Curve{small, large},
		WASmall: waSmall,
		WALarge: waLarge,
	}
	sp, lp := small.Peak(), large.Peak()
	res.ThroughputGainPct = gain(lp.Throughput, sp.Throughput)
	res.LatencyChangePct = gain(lp.LatencyMs, sp.LatencyMs)

	printCurves(w, "Fig 8: SSD AA sizing (4KiB random R/W, aged to 85%)", res.Curves)
	tb := stats.Table{Title: "Fig 8 / §4.3 headline metrics", Columns: []string{"metric", "paper", "measured"}}
	tb.AddRow("peak throughput gain (large vs HDD AA)", "+26%", fmt.Sprintf("%+.1f%%", res.ThroughputGainPct))
	tb.AddRow("peak latency change (large vs HDD AA)", "-21%", fmt.Sprintf("%+.1f%%", res.LatencyChangePct))
	tb.AddRow("write amplification, HDD-sized AA", "2x of large", fmt.Sprintf("%.2f", res.WASmall))
	tb.AddRow("write amplification, large AA", "half of HDD", fmt.Sprintf("%.2f", res.WALarge))
	tb.AddRow("WA ratio (HDD/large)", "~2.0", fmt.Sprintf("%.2f", stats.Ratio(res.WASmall, res.WALarge)))
	fmt.Fprintln(w, tb.String())
	return res
}
