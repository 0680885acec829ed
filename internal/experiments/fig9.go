package experiments

import (
	"fmt"
	"io"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/parallel"
	"waflfs/internal/stats"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// Fig9Result reproduces §4.3's SMR data point: sequential writes to an
// unaged file system on drive-managed SMR drives with AZCS, comparing the
// historical HDD AA size (whose on-disk span is not aligned to AZCS
// regions, forcing random checksum-block writes at every AA switch) against
// an AA larger than the shingle zone and aligned to AZCS regions. The paper
// reports 7% higher drive throughput and 11% lower latency.
type Fig9Result struct {
	Curves []Curve // "hdd-aa", "smr-aa"
	// Random (out-of-band) checksum-block writes observed per config.
	RandomChecksumSmall, RandomChecksumLarge uint64
	// Shingle-zone interventions observed per config.
	InterventionsSmall, InterventionsLarge uint64
	// Peak-load comparison (large/aligned vs small).
	ThroughputGainPct, LatencyChangePct float64
}

// Rows is the §4.3 SMR headline set: out-of-band checksum writes and zone
// interventions per AA sizing, and the peak-load gain of the aligned AA.
func (r *Fig9Result) Rows() (ms benchfmt.Metrics) {
	ms.Add("fig9.random_cs_small", float64(r.RandomChecksumSmall), "count", 0.10)
	ms.Add("fig9.random_cs_large", float64(r.RandomChecksumLarge), "count", 0.10)
	ms.Add("fig9.interventions_small", float64(r.InterventionsSmall), "count", 0.25)
	ms.Add("fig9.interventions_large", float64(r.InterventionsLarge), "count", 0.25)
	ms.Add("fig9.tput_gain_pct", r.ThroughputGainPct, "pct", 0.35)
	ms.Add("fig9.latency_change_pct", r.LatencyChangePct, "pct", 0.35)
	return append(ms, curvePeaks("fig9", r.Curves)...)
}

func fig9RunOne(cfg Config, label string, stripesPerAA uint64) (Curve, uint64, uint64) {
	tun := cfg.tunablesNamed("fig9." + label)
	per := cfg.scaled(1<<19, 1<<17)
	spec := wafl.GroupSpec{
		DataDevices:     3,
		ParityDevices:   1,
		BlocksPerDevice: per,
		Media:           aa.MediaSMR,
		ZoneBlocks:      16384, // 64MiB shingle zones
		AZCS:            true,
		StripesPerAA:    stripesPerAA, // 0 = media-derived (2 zones, AZCS-aligned)
	}
	aggBlocks := 3 * per
	lunBlocks := uint64(float64(aggBlocks) * 0.70)

	s := wafl.NewSystem([]wafl.GroupSpec{spec},
		[]wafl.VolSpec{{Name: "vol0", Blocks: lunBlocks + 8*aa.RAIDAgnosticBlocks}}, tun, cfg.Seed)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", lunBlocks)

	// Unaged system, sequential writes only (64KiB operations).
	s.ResetMetrics()
	m := measure(s, func() {
		workload.SequentialFill(s, lun, 16)
		s.CP()
	})
	var rndCS, interventions uint64
	for _, g := range s.Agg.Groups() {
		gm := g.Metrics()
		rndCS += gm.AZCSRandom
		for _, d := range g.Devices() {
			if smr, ok := d.(interface{ Interventions() uint64 }); ok {
				interventions += smr.Interventions()
			}
		}
	}
	return curveFrom(label, m, cfg), rndCS, interventions
}

// RunFig9 regenerates Figure 9.
func RunFig9(cfg Config, w io.Writer) *Fig9Result {
	// The two AA sizings are independent arms; fan them out.
	type fig9Run struct {
		curve         Curve
		rndCS, interv uint64
	}
	arms := []struct {
		label   string
		stripes uint64
	}{{"hdd-aa", aa.DefaultHDDStripes}, {"smr-aa", 0}}
	runs := parallel.Map(cfg.Workers, len(arms), func(i int) fig9Run {
		c, cs, iv := fig9RunOne(cfg, arms[i].label, arms[i].stripes)
		return fig9Run{c, cs, iv}
	})
	small, csSmall, ivSmall := runs[0].curve, runs[0].rndCS, runs[0].interv
	large, csLarge, ivLarge := runs[1].curve, runs[1].rndCS, runs[1].interv

	res := &Fig9Result{
		Curves:              []Curve{small, large},
		RandomChecksumSmall: csSmall,
		RandomChecksumLarge: csLarge,
		InterventionsSmall:  ivSmall,
		InterventionsLarge:  ivLarge,
	}
	sp, lp := small.Peak(), large.Peak()
	res.ThroughputGainPct = gain(lp.Throughput, sp.Throughput)
	res.LatencyChangePct = gain(lp.LatencyMs, sp.LatencyMs)

	printCurves(w, "Fig 9: SMR AA sizing (sequential writes, unaged, AZCS)", res.Curves)
	tb := stats.Table{Title: "Fig 9 / §4.3 headline metrics", Columns: []string{"metric", "paper", "measured"}}
	tb.AddRow("peak throughput gain (SMR vs HDD AA)", "+7%", fmt.Sprintf("%+.1f%%", res.ThroughputGainPct))
	tb.AddRow("peak latency change (SMR vs HDD AA)", "-11%", fmt.Sprintf("%+.1f%%", res.LatencyChangePct))
	tb.AddRow("random checksum writes, HDD AA", ">0", fmt.Sprint(res.RandomChecksumSmall))
	tb.AddRow("random checksum writes, SMR AA", "0", fmt.Sprint(res.RandomChecksumLarge))
	tb.AddRow("zone interventions, HDD AA", "-", fmt.Sprint(res.InterventionsSmall))
	tb.AddRow("zone interventions, SMR AA", "-", fmt.Sprint(res.InterventionsLarge))
	fmt.Fprintln(w, tb.String())
	return res
}
