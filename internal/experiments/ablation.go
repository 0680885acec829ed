package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/hbps"
	"waflfs/internal/parallel"
	"waflfs/internal/stats"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// Ablations probe the design choices the paper motivates qualitatively:
//
//   - HBPS bin width (§3.3.2): narrower bins tighten the error margin
//     (binWidth/maxScore) but raise per-update structure churn; the paper
//     chose 1k-of-32k (3.125%) and found within-bin sorting "negligible".
//   - AA size (§3.2): smaller AAs give the cache finer differentiation
//     between regions (better picks) but multiply tracking state; 4k
//     stripes was found to work well for HDDs.
//   - The fragmented-RAID-group write bias (§3.3.1): the threshold below
//     which a group is skipped trades aggregate bandwidth against
//     partial-stripe cost.

// AblationResult bundles the three studies.
type AblationResult struct {
	BinWidth  []BinWidthPoint
	AASize    []AASizePoint
	Threshold []ThresholdPoint
}

// Rows is empty: the ablations go beyond the paper's figures, and no claim
// or gate reads them.
func (*AblationResult) Rows() benchfmt.Metrics { return nil }

// BinWidthPoint measures HBPS selection quality/cost for one bin width.
type BinWidthPoint struct {
	BinWidth uint32
	// MaxRegret is the worst observed (bestScore - providedScore).
	MaxRegret uint32
	// MeanRegret averages the same over all probes.
	MeanRegret float64
	// GuaranteeBound is the structural bound (= bin width).
	GuaranteeBound uint32
}

// AASizePoint measures allocator pick quality for one AA size.
type AASizePoint struct {
	StripesPerAA uint64
	NumAAs       int
	// PickedFreeFraction is the mean free fraction of chosen AAs on the
	// aged system.
	PickedFreeFraction float64
	// FullStripeFraction over the measurement window.
	FullStripeFraction float64
	// HeapBytes approximates cache memory (16 bytes per tracked AA).
	HeapBytes int
}

// ThresholdPoint measures the §4.2 bias for one MinAAScoreFraction.
type ThresholdPoint struct {
	Threshold        float64
	FreshToAgedRatio float64
	AgedFullStripes  float64
}

// RunAblations runs all three studies and prints their tables.
func RunAblations(cfg Config, w io.Writer) *AblationResult {
	res := &AblationResult{
		BinWidth:  ablateBinWidth(cfg),
		AASize:    ablateAASize(cfg),
		Threshold: ablateThreshold(cfg),
	}

	tb := stats.Table{
		Title:   "Ablation: HBPS bin width (32k score space, 1000-entry list, random churn)",
		Columns: []string{"bin width", "error bound", "max regret", "mean regret"},
	}
	for _, p := range res.BinWidth {
		tb.AddRow(p.BinWidth, p.GuaranteeBound, p.MaxRegret, fmt.Sprintf("%.1f", p.MeanRegret))
	}
	fmt.Fprintln(w, tb.String())

	tb = stats.Table{
		Title:   "Ablation: RAID-aware AA size (aged HDD aggregate)",
		Columns: []string{"stripes/AA", "AAs", "picked free frac", "full-stripe frac", "cache bytes"},
	}
	for _, p := range res.AASize {
		tb.AddRow(p.StripesPerAA, p.NumAAs,
			fmt.Sprintf("%.3f", p.PickedFreeFraction),
			fmt.Sprintf("%.3f", p.FullStripeFraction), p.HeapBytes)
	}
	fmt.Fprintln(w, tb.String())

	tb = stats.Table{
		Title:   "Ablation: fragmented-group write bias threshold (Fig 7 setup)",
		Columns: []string{"threshold", "fresh/aged blocks", "aged full-stripe frac"},
	}
	for _, p := range res.Threshold {
		tb.AddRow(fmt.Sprintf("%.2f", p.Threshold),
			fmt.Sprintf("%.2f", p.FreshToAgedRatio),
			fmt.Sprintf("%.3f", p.AgedFullStripes))
	}
	fmt.Fprintln(w, tb.String())
	return res
}

// ablateBinWidth churns an HBPS at several bin widths and records the
// regret of its picks against the true best score. Each width owns its
// structure and rng, so the points fan out over the work pool.
func ablateBinWidth(cfg Config) []BinWidthPoint {
	widths := []uint32{256, 1024, 4096, 8192}
	return parallel.Map(cfg.Workers, len(widths), func(wi int) BinWidthPoint {
		bw := widths[wi]
		h := hbps.New(hbps.Config{MaxScore: 32768, BinWidth: bw, ListCap: 1000})
		rng := rand.New(rand.NewSource(cfg.Seed))
		const n = 4000
		scores := make([]uint32, n)
		for i := range scores {
			scores[i] = uint32(rng.Intn(32769))
			h.Track(aa.ID(i), scores[i])
		}
		p := BinWidthPoint{BinWidth: bw, GuaranteeBound: bw}
		var regretSum float64
		probes := 0
		for round := 0; round < 3000; round++ {
			id := aa.ID(rng.Intn(n))
			ns := uint32(rng.Intn(32769))
			h.Update(id, scores[id], ns)
			scores[id] = ns
			if round%10 == 0 {
				got, ok := h.PeekBest()
				if !ok {
					continue
				}
				var best uint32
				for _, s := range scores {
					if s > best {
						best = s
					}
				}
				regret := best - scores[got]
				if regret > p.MaxRegret {
					p.MaxRegret = regret
				}
				regretSum += float64(regret)
				probes++
			}
		}
		if probes > 0 {
			p.MeanRegret = regretSum / float64(probes)
		}
		return p
	})
}

// ablateAASize ages one HDD aggregate per AA size and measures pick quality
// and stripe efficiency. Each size ages its own System, so the points fan
// out over the work pool.
func ablateAASize(cfg Config) []AASizePoint {
	per := cfg.scaled(1<<17, 1<<14)
	sizes := []uint64{1024, 4096, 16384}
	return parallel.Map(cfg.Workers, len(sizes), func(si int) AASizePoint {
		stripes := sizes[si]
		tun := cfg.tunablesNamed(fmt.Sprintf("ablate.aasize%d", stripes))
		spec := wafl.GroupSpec{
			DataDevices: 6, ParityDevices: 1, BlocksPerDevice: per,
			Media: aa.MediaHDD, StripesPerAA: stripes,
		}
		lunBlocks := uint64(float64(6*per) * 0.6)
		s := wafl.NewSystem([]wafl.GroupSpec{spec},
			[]wafl.VolSpec{{Name: "v", Blocks: lunBlocks * 2}}, tun, cfg.Seed)
		lun := s.Agg.Vols()[0].CreateLUN("l", lunBlocks)
		rng := rand.New(rand.NewSource(cfg.Seed + 6))
		workload.Age(s, []*wafl.LUN{lun}, rng, 0.8)

		s.ResetMetrics()
		g := s.Agg.Groups()[0]
		preFull, prePartial := g.RAIDStats().FullStripes, g.RAIDStats().PartialStripes
		workload.RandomOverwrite(s, []*wafl.LUN{lun}, rng, int(cfg.scaled(80_000, 10_000)), 1)
		s.CP()

		full := g.RAIDStats().FullStripes - preFull
		partial := g.RAIDStats().PartialStripes - prePartial
		p := AASizePoint{
			StripesPerAA:       stripes,
			NumAAs:             g.Topology().NumAAs(),
			PickedFreeFraction: g.Metrics().PickedScoreFraction,
			HeapBytes:          16 * g.Topology().NumAAs(),
		}
		if full+partial > 0 {
			p.FullStripeFraction = float64(full) / float64(full+partial)
		}
		return p
	})
}

// ablateThreshold reruns the Fig 7 imbalanced-aging setup across bias
// thresholds, one independent System per threshold, fanned over the pool.
func ablateThreshold(cfg Config) []ThresholdPoint {
	thresholds := []float64{0, 0.05, 0.25, 0.5}
	return parallel.Map(cfg.Workers, len(thresholds), func(ti int) ThresholdPoint {
		th := thresholds[ti]
		r := runFig7With(cfg, th, fmt.Sprintf("ablate.bias%g", th))
		aged := r.BlocksPerTetris[0]
		agedFull := 0.0
		if aged > 0 {
			// blocks/tetris over the tetris capacity approximates stripe
			// fill for the aged groups (6 data devices, 64 stripes).
			agedFull = aged / 384.0
		}
		return ThresholdPoint{
			Threshold:        th,
			FreshToAgedRatio: r.FreshToAgedBlockRatio,
			AgedFullStripes:  agedFull,
		}
	})
}
