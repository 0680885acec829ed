package experiments

import (
	"fmt"
	"io"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/parallel"
	"waflfs/internal/stats"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// Fig10Result reproduces §4.4: the time to complete the first consistency
// point after mount, with and without the TopAA metafiles, as (A) the
// FlexVol volume size grows and (B) the number of FlexVol volumes grows.
// With TopAA the cost is a fixed small number of metafile block reads per
// file-system instance; without it, every bitmap-metafile page must be
// walked, so the cost grows linearly with total volume size.
type Fig10Result struct {
	// SizeSweep: first-CP time versus per-volume size (fixed count).
	SizeSweep []Fig10Point
	// CountSweep: first-CP time versus volume count (fixed size).
	CountSweep []Fig10Point
}

// Rows is the §4.4 headline set: each sweep's largest point — TopAA block
// reads, bitmap pages walked, and the walk's time over the seeded mount's.
func (r *Fig10Result) Rows() (ms benchfmt.Metrics) {
	for _, sw := range []struct {
		prefix string
		points []Fig10Point
	}{{"fig10.size", r.SizeSweep}, {"fig10.count", r.CountSweep}} {
		if len(sw.points) == 0 {
			continue
		}
		p := sw.points[len(sw.points)-1]
		ms.Add(sw.prefix+".topaa_reads", float64(p.TopAAReads), "count", 0.10)
		ms.Add(sw.prefix+".bitmap_pages", float64(p.BitmapPages), "count", 0.10)
		if p.WithTopAA > 0 {
			ms.Add(sw.prefix+".speedup_x", float64(p.WithoutTopAA)/float64(p.WithTopAA), "x", 0.25)
		}
	}
	return ms
}

// Fig10Point is one mount measurement.
type Fig10Point struct {
	Vols      int
	VolBlocks uint64
	// WithTopAA and WithoutTopAA are the modeled first-CP gate times.
	WithTopAA, WithoutTopAA time.Duration
	// The raw work counts behind the model.
	TopAAReads, BitmapPages uint64
}

// Mount-time cost constants: a random 4KiB metafile-block read from HDD
// storage, and the CPU cost of one cache insert.
const (
	mountBlockReadLatency = 1 * time.Millisecond
	mountInsertCPU        = 150 * time.Nanosecond
)

func mountTime(ms wafl.MountStats) time.Duration {
	return time.Duration(ms.TopAABlockReads+ms.BitmapPagesRead)*mountBlockReadLatency +
		time.Duration(ms.CacheInserts)*mountInsertCPU
}

// normDuration guards the table normalizers against a degenerate zero-cost
// mount point (possible at extreme scale-down).
func normDuration(d time.Duration) time.Duration {
	if d <= 0 {
		return 1
	}
	return d
}

func fig10Point(cfg Config, nvols int, volBlocks uint64) Fig10Point {
	// The name carries both sweep dimensions: panel A reuses one volume
	// count at several sizes, and same-named systems would share one trace
	// seq space nondeterministically under parallel arms.
	tun := cfg.tunablesNamed(fmt.Sprintf("fig10.vols%d.blk%d", nvols, volBlocks))
	specs := []wafl.GroupSpec{{
		DataDevices: 6, ParityDevices: 1,
		BlocksPerDevice: cfg.scaled(1<<17, 1<<14), Media: aa.MediaHDD,
	}}
	var vols []wafl.VolSpec
	for i := 0; i < nvols; i++ {
		vols = append(vols, wafl.VolSpec{Name: fmt.Sprintf("vol%d", i), Blocks: volBlocks})
	}
	s := wafl.NewSystem(specs, vols, tun, cfg.Seed)
	// A little activity so the mount is realistic, then a CP to persist the
	// TopAA metafiles.
	lun := s.Agg.Vols()[0].CreateLUN("l", 4096)
	workload.SequentialFill(s, lun, 8)
	s.CP()

	p := Fig10Point{Vols: nvols, VolBlocks: volBlocks}
	msTop := s.Agg.Remount(true)
	p.WithTopAA = mountTime(msTop)
	p.TopAAReads = msTop.TopAABlockReads
	msWalk := s.Agg.Remount(false)
	p.WithoutTopAA = mountTime(msWalk)
	p.BitmapPages = msWalk.BitmapPagesRead
	return p
}

// RunFig10 regenerates Figure 10 (both panels).
func RunFig10(cfg Config, w io.Writer) *Fig10Result {
	res := &Fig10Result{}

	// Every sweep point builds and remounts its own System, so both panels
	// flatten into one work list and fan out over the pool; the ordered
	// result slice splits back into the two panels.
	base := uint64(16) * aa.RAIDAgnosticBlocks
	type job struct {
		vols      int
		volBlocks uint64
	}
	var jobs []job
	// Panel A: 8 volumes, growing per-volume size.
	sizeMults := []uint64{1, 2, 4, 8, 16}
	for _, mult := range sizeMults {
		jobs = append(jobs, job{8, base * mult})
	}
	// Panel B: fixed-size volumes, growing count.
	for _, n := range []int{5, 10, 20, 40} {
		jobs = append(jobs, job{n, base})
	}
	points := parallel.Map(cfg.Workers, len(jobs), func(i int) Fig10Point {
		return fig10Point(cfg, jobs[i].vols, jobs[i].volBlocks)
	})
	res.SizeSweep = points[:len(sizeMults)]
	res.CountSweep = points[len(sizeMults):]

	norm := normDuration(res.SizeSweep[0].WithoutTopAA)
	tbA := stats.Table{
		Title:   "Fig 10 (A): first-CP time vs FlexVol size (8 volumes; normalized to smallest no-TopAA point)",
		Columns: []string{"vol blocks", "with TopAA", "without TopAA", "TopAA reads", "bitmap pages"},
	}
	for _, p := range res.SizeSweep {
		tbA.AddRow(p.VolBlocks,
			fmt.Sprintf("%.3f", float64(p.WithTopAA)/float64(norm)),
			fmt.Sprintf("%.3f", float64(p.WithoutTopAA)/float64(norm)),
			p.TopAAReads, p.BitmapPages)
	}
	fmt.Fprintln(w, tbA.String())

	normB := normDuration(res.CountSweep[0].WithoutTopAA)
	tbB := stats.Table{
		Title:   "Fig 10 (B): first-CP time vs FlexVol count (fixed size; normalized to smallest no-TopAA point)",
		Columns: []string{"volumes", "with TopAA", "without TopAA", "TopAA reads", "bitmap pages"},
	}
	for _, p := range res.CountSweep {
		tbB.AddRow(p.Vols,
			fmt.Sprintf("%.3f", float64(p.WithTopAA)/float64(normB)),
			fmt.Sprintf("%.3f", float64(p.WithoutTopAA)/float64(normB)),
			p.TopAAReads, p.BitmapPages)
	}
	fmt.Fprintln(w, tbB.String())
	fmt.Fprintln(w, "paper: TopAA time flat in both sweeps; no-TopAA time linear in total volume size")
	fmt.Fprintln(w)
	return res
}
