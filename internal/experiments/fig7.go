package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/block"
	"waflfs/internal/stats"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// Fig7Result reproduces §4.2: disk usage across differently aged RAID
// groups under an OLTP workload. RG0/RG1 are aged (a random 50% of their
// blocks used), RG2/RG3 are fresh; the write allocator should spread blocks
// evenly within equally aged groups and direct more blocks to the fresh
// groups, with the aged groups seeing a marginally higher tetris rate per
// block written (their tetrises contain partial stripes).
type Fig7Result struct {
	// PerDiskBlocksPerSec[rg][disk] is the data-block write rate per disk,
	// normalized to the nominal client load.
	PerDiskBlocksPerSec [][]float64
	// PerRGBlocksPerSec and PerRGTetrisPerSec aggregate per RAID group.
	PerRGBlocksPerSec []float64
	PerRGTetrisPerSec []float64
	// BlocksPerTetris[rg] shows the fill efficiency: aged groups fit fewer
	// new blocks into each tetris.
	BlocksPerTetris []float64
	// FreshToAgedBlockRatio compares mean fresh-group vs aged-group rates.
	FreshToAgedBlockRatio float64
}

// Rows is the §4.2 headline set: the fresh/aged write-rate ratio and the
// mean blocks per tetris of the aged and of the fresh groups.
func (r *Fig7Result) Rows() (ms benchfmt.Metrics) {
	ms.Add("fig7.fresh_aged_ratio", r.FreshToAgedBlockRatio, "x", 0.25)
	if n := len(r.BlocksPerTetris) / 2; n > 0 {
		ms.Add("fig7.blocks_per_tetris_aged", stats.Mean(r.BlocksPerTetris[:n]), "blocks", 0.25)
		ms.Add("fig7.blocks_per_tetris_fresh", stats.Mean(r.BlocksPerTetris[n:]), "blocks", 0.25)
	}
	return ms
}

// nominalFig7Load is the cumulative client load the paper reports (68K
// ops/s); rates are normalized to it.
const nominalFig7Load = 68000.0

// RunFig7 regenerates Figure 7.
func RunFig7(cfg Config, w io.Writer) *Fig7Result {
	res := runFig7With(cfg, 0.05, "fig7.min0.05")
	printFig7(w, res)
	return res
}

// runFig7With runs the Figure 7 workload with a configurable
// fragmented-group bias threshold. The threshold ablation reuses it with
// its own sysName: fig7 and the ablations run as concurrent experiments,
// so they must not register the same system name against shared sinks.
func runFig7With(cfg Config, minFraction float64, sysName string) *Fig7Result {
	tun := cfg.tunablesNamed(sysName)
	tun.MinAAScoreFraction = minFraction
	per := cfg.scaled(1<<17, 1<<14)
	g := wafl.GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: per, Media: aa.MediaHDD}
	specs := []wafl.GroupSpec{g, g, g, g}
	aggBlocks := 4 * 6 * per

	lunBlocks := uint64(float64(aggBlocks) * 0.88)
	s := wafl.NewSystem(specs, []wafl.VolSpec{{Name: "vol0", Blocks: lunBlocks * 2}}, tun, cfg.Seed)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", lunBlocks)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	// Construct imbalanced aging: fill and fragment everything, then empty
	// the "new" groups (RG2, RG3) entirely and thin the aged groups
	// (RG0, RG1) down to a random ~50% used.
	workload.Age(s, []*wafl.LUN{lun}, rng, 0.4)
	youngs := []block.Range{
		s.Agg.Groups()[2].Geometry().VBNRange(),
		s.Agg.Groups()[3].Geometry().VBNRange(),
	}
	agedUsed := [2]float64{}
	for i, gr := range s.Agg.Groups()[:2] {
		r := gr.Geometry().VBNRange()
		agedUsed[i] = float64(s.Agg.Bitmap().CountUsed(r)) / float64(r.Len())
	}
	s.PunchHoles(lun, func(lba uint64) bool {
		p := lun.Phys(lba)
		for _, yr := range youngs {
			if yr.Contains(p) {
				return true
			}
		}
		// Thin the aged groups to ~50% used.
		gi := 0
		if s.Agg.Groups()[1].Geometry().VBNRange().Contains(p) {
			gi = 1
		}
		if agedUsed[gi] <= 0.5 {
			return false
		}
		return rng.Float64() < 1-0.5/agedUsed[gi]
	})
	s.CP()
	s.ResetMetrics()

	// Snapshot per-group RAID stats, run the OLTP benchmark, subtract.
	type snap struct {
		blocks, tetrises uint64
		perDisk          []uint64
	}
	pre := make([]snap, 4)
	for i, gr := range s.Agg.Groups() {
		st := gr.RAIDStats()
		pre[i] = snap{st.BlocksWritten, st.Tetrises, append([]uint64(nil), st.PerDeviceBlocks...)}
	}
	ops := int(cfg.scaled(500_000, 40_000))
	workload.DefaultOLTP().Run(s, []*wafl.LUN{lun}, rng, ops)
	s.CP()

	seconds := float64(ops) / nominalFig7Load
	res := &Fig7Result{}
	var agedRate, freshRate float64
	for i, gr := range s.Agg.Groups() {
		st := gr.RAIDStats()
		blocks := st.BlocksWritten - pre[i].blocks
		tets := st.Tetrises - pre[i].tetrises
		var disks []float64
		for d, n := range st.PerDeviceBlocks {
			disks = append(disks, float64(n-pre[i].perDisk[d])/seconds)
		}
		res.PerDiskBlocksPerSec = append(res.PerDiskBlocksPerSec, disks)
		res.PerRGBlocksPerSec = append(res.PerRGBlocksPerSec, float64(blocks)/seconds)
		res.PerRGTetrisPerSec = append(res.PerRGTetrisPerSec, float64(tets)/seconds)
		bpt := 0.0
		if tets > 0 {
			bpt = float64(blocks) / float64(tets)
		}
		res.BlocksPerTetris = append(res.BlocksPerTetris, bpt)
		if i < 2 {
			agedRate += float64(blocks)
		} else {
			freshRate += float64(blocks)
		}
	}
	res.FreshToAgedBlockRatio = stats.Ratio(freshRate, agedRate)
	return res
}

func printFig7(w io.Writer, res *Fig7Result) {
	tb := stats.Table{
		Title:   "Fig 7: per-disk and per-RG write rates (OLTP, RG0/RG1 aged to ~50%, RG2/RG3 fresh)",
		Columns: []string{"group", "aged", "blocks/s", "tetris/s", "blocks/tetris", "per-disk blocks/s"},
	}
	for i := range res.PerRGBlocksPerSec {
		aged := "yes"
		if i >= 2 {
			aged = "no"
		}
		disks := ""
		for d, v := range res.PerDiskBlocksPerSec[i] {
			if d > 0 {
				disks += " "
			}
			disks += fmt.Sprintf("%.0f", v)
		}
		tb.AddRow(fmt.Sprintf("RG%d", i), aged,
			fmt.Sprintf("%.0f", res.PerRGBlocksPerSec[i]),
			fmt.Sprintf("%.1f", res.PerRGTetrisPerSec[i]),
			fmt.Sprintf("%.1f", res.BlocksPerTetris[i]), disks)
	}
	fmt.Fprintln(w, tb.String())
	fmt.Fprintf(w, "fresh/aged block-rate ratio: %.2f (paper: fresh groups receive visibly more blocks)\n\n",
		res.FreshToAgedBlockRatio)
}
