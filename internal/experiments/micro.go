package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/parallel"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// MicroResult is the allocation microbenchmarks on one aged mid-size HDD
// aggregate: the first-CP mount cost seeded from TopAA against a bitmap walk
// (the Fig. 10 model), and one CP's flush — serial device time against its
// makespan at a pinned 8-way width, so the number is comparable whatever
// Config.Workers is.
type MicroResult struct {
	// SeededReads / WalkPages are the metafile blocks each mount read, and
	// SeededMount / WalkMount their modeled first-CP times.
	SeededReads, WalkPages uint64
	SeededMount, WalkMount time.Duration
	// WriteCPUPerOp is the modeled CPU per op of a random-overwrite burst.
	WriteCPUPerOp float64
	// FlushBusy is the burst CP's summed device time; FlushWall8 schedules
	// the per-group times over 8 workers.
	FlushBusy, FlushWall8 time.Duration
}

// Rows are the mount costs, their ratio, the write CPU per op and the
// flush's serial time, makespan and speedup.
func (r *MicroResult) Rows() (ms benchfmt.Metrics) {
	ms.Add("micro.mount.seeded_reads", float64(r.SeededReads), "count", 0.10)
	ms.Add("micro.mount.seeded_ns", float64(r.SeededMount), "ns", 0.10)
	ms.Add("micro.mount.walk_pages", float64(r.WalkPages), "count", 0.10)
	ms.Add("micro.mount.walk_ns", float64(r.WalkMount), "ns", 0.10)
	if r.SeededMount > 0 {
		ms.Add("micro.mount.walk_seeded_ratio", float64(r.WalkMount)/float64(r.SeededMount), "x", 0.25)
	}
	ms.Add("micro.write.cpu_per_op_ns", r.WriteCPUPerOp, "ns", 0.10)
	ms.Add("micro.cp.flush_busy_ns", float64(r.FlushBusy), "ns", 0.10)
	ms.Add("micro.cp.flush_wall8_ns", float64(r.FlushWall8), "ns", 0.10)
	if r.FlushWall8 > 0 {
		ms.Add("micro.cp.flush_speedup_x", float64(r.FlushBusy)/float64(r.FlushWall8), "x", 0.20)
	}
	return ms
}

// RunMicro ages the aggregate, remounts it both ways, then times one write
// burst's CP, and prints its rows.
func RunMicro(cfg Config, w io.Writer) *MicroResult {
	tun := cfg.tunablesNamed("micro")
	per := cfg.scaled(1<<17, 1<<14)
	spec := wafl.GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: per, Media: aa.MediaHDD}
	aggBlocks := 2 * 6 * per
	lunBlocks := uint64(float64(aggBlocks) * 0.55)
	s := wafl.NewSystem([]wafl.GroupSpec{spec, spec},
		[]wafl.VolSpec{{Name: "v0", Blocks: lunBlocks * 2}}, tun, cfg.Seed)
	lun := s.Agg.Vols()[0].CreateLUN("l0", lunBlocks)
	rng := rand.New(rand.NewSource(cfg.Seed))
	workload.SequentialFill(s, lun, 1)
	s.CP()
	workload.Age(s, []*wafl.LUN{lun}, rng, 0.3)

	res := &MicroResult{}
	seeded := s.Agg.Remount(true)
	res.SeededReads, res.SeededMount = seeded.TopAABlockReads, mountTime(seeded)
	walk := s.Agg.Remount(false)
	res.WalkPages, res.WalkMount = walk.BitmapPagesRead, mountTime(walk)

	groups := s.Agg.Groups()
	busyBefore := make([]time.Duration, len(groups))
	for i, g := range groups {
		busyBefore[i] = g.Metrics().DeviceBusy
	}
	opsBefore := s.Counters()
	workload.RandomOverwrite(s, []*wafl.LUN{lun}, rng, int(lunBlocks/4), 1)
	s.CP()
	burst := s.Counters().Sub(opsBefore)
	res.WriteCPUPerOp = float64(burst.CPUTime) / float64(burst.Ops)
	deltas := make([]time.Duration, len(groups))
	for i, g := range groups {
		deltas[i] = g.Metrics().DeviceBusy - busyBefore[i]
		res.FlushBusy += deltas[i]
	}
	res.FlushWall8 = parallel.Makespan(deltas, 8)

	for _, m := range res.Rows() {
		fmt.Fprintf(w, "  %-32s %14.1f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintln(w)
	return res
}
