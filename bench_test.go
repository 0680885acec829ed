package waflfs

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"waflfs/internal/experiments"
)

// benchScale controls how large the figure benchmarks run; override with
// WAFL_BENCH_SCALE=1.0 for full-scale reproduction (slower). The default
// keeps the complete bench suite in CI time while preserving every
// comparison's direction and approximate magnitude.
func benchScale() float64 {
	if s := os.Getenv("WAFL_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.35
}

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = benchScale()
	return cfg
}

// benchFigure runs one figure's registry entry and reports its headline
// rows — the same rows, under the same names, that BENCH_<n>.json records
// (see EXPERIMENTS.md's metric appendix).
func benchFigure(b *testing.B, name string) {
	e, err := experiments.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := e.Run(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range rows {
			b.ReportMetric(m.Value, m.Name)
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (§4.1): AA-cache latency/throughput
// curves, pick quality, SSD write amplification, and CPU/op.
func BenchmarkFig6(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (§4.2): per-disk and per-RAID-group
// write rates under OLTP with imbalanced aging.
func BenchmarkFig7(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (§4.3): SSD AA sizing.
func BenchmarkFig8(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (§4.3): SMR AA sizing with AZCS.
func BenchmarkFig9(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (§4.4): first-CP time after mount
// with and without TopAA metafiles.
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkWritePath measures the end-to-end simulated write path: client
// write -> CP -> dual allocation -> tetris flush, on an aged system.
func BenchmarkWritePath(b *testing.B) {
	spec := GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 17, Media: MediaHDD}
	sys := NewSystem([]GroupSpec{spec, spec},
		[]VolSpec{{Name: "v", Blocks: 1 << 21}}, DefaultTunables(), 1)
	lun := sys.Agg.Vols()[0].CreateLUN("l", 1<<20)
	rng := rand.New(rand.NewSource(1))
	Age(sys, []*LUN{lun}, rng, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Write(lun, uint64(rng.Intn(1<<20)), 1)
	}
	b.StopTimer()
	sys.CP()
}

// BenchmarkAllocStage is one CP round of the host benchmark's ssd_overwrite
// workload: 4096 random two-block overwrites buffered, then the CP that
// allocates, flushes and folds them, on two aged 6+1 SSD groups with the LUN
// at 55% of the aggregate. The write buffer, the tetris build and the ledger
// folds all sit on this path, so a per-block sort coming back shows here.
func BenchmarkAllocStage(b *testing.B) {
	tun := DefaultTunables()
	tun.Workers = 1
	tun.CPEveryOps = 1 << 30
	spec := GroupSpec{
		DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 16,
		Media: MediaSSD, EraseBlockBlocks: 512, Overprovision: 0.08,
	}
	const lunBlocks = 2 * 6 * (1 << 16) * 55 / 100
	sys := NewSystem([]GroupSpec{spec, spec}, []VolSpec{{Name: "v", Blocks: 2 * lunBlocks}}, tun, 1)
	lun := sys.Agg.Vols()[0].CreateLUN("l", lunBlocks)
	rng := rand.New(rand.NewSource(1))
	round := func() {
		for i := 0; i < 4096; i++ {
			sys.Write(lun, uint64(rng.Intn(lunBlocks-1)), 2)
		}
		sys.CP()
	}
	for lba := uint64(0); lba+1 < lunBlocks; lba += 2 {
		sys.Write(lun, lba, 2)
		if lba%8192 == 0 {
			sys.CP()
		}
	}
	for i := 0; i < lunBlocks*12/10/8192; i++ { // churn 1.2x the LUN, as the workload's aging does
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkSnapshotCycle is one round of the host benchmark's snap_pipeline
// workload: quiesce, snapshot both LUNs, delete the snapshots of two rounds
// ago, then four times 2048 skewed overwrites and a pipelined CP, on two SMR
// groups with AZCS and delayed virtual frees. The sub-benchmarks size the
// LUNs at 30 000, 120 000 (the workload's) and 480 000 blocks, the groups
// with them, and the overwrites stay 2048 per CP: create_ns and delete_ns —
// one CreateSnapshot and one DeleteSnapshot call — price the snapshot by what
// diverged since it was taken, so a per-LBA walk coming back into either
// shows as a cost that grows with the LUN.
func BenchmarkSnapshotCycle(b *testing.B) {
	for _, lunBlocks := range []int{30_000, 120_000, 480_000} {
		b.Run(fmt.Sprintf("lun=%dk", lunBlocks/1000), func(b *testing.B) { snapshotCycle(b, uint64(lunBlocks)) })
	}
}

func snapshotCycle(b *testing.B, lunBlocks uint64) {
	tun := DefaultTunables()
	tun.Workers = 1
	tun.CPEveryOps = 1 << 30
	tun.Pipeline, tun.AllocShards = true, 4
	tun.DelayedVirtFrees, tun.DelayedFreeBudgetPerCP = true, 4096
	spec := GroupSpec{
		DataDevices: 3, ParityDevices: 1, BlocksPerDevice: (1 << 17) * lunBlocks / 120_000,
		Media: MediaSMR, ZoneBlocks: 16384, AZCS: true,
	}
	vols := []VolSpec{{Name: "vol0", Blocks: 4 * lunBlocks}, {Name: "vol1", Blocks: 4 * lunBlocks}}
	sys := NewSystem([]GroupSpec{spec, spec}, vols, tun, 1)
	var luns []*LUN
	for _, v := range sys.Agg.Vols() {
		luns = append(luns, v.CreateLUN("lun0", lunBlocks))
	}
	rng := rand.New(rand.NewSource(1))
	for n, lba := 0, uint64(0); lba < lunBlocks; lba++ {
		for _, l := range luns {
			sys.Write(l, lba, 1)
			if n++; n%4096 == 0 {
				sys.CP()
			}
		}
	}
	sys.CP()
	hc := DefaultHotCold()
	r := 0
	var creates, deletes time.Duration
	round := func() {
		sys.Drain()
		for _, l := range luns {
			t0 := time.Now()
			if _, err := sys.CreateSnapshot(l, strconv.Itoa(r)); err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			creates += t1.Sub(t0)
			if r >= 2 {
				if _, err := sys.DeleteSnapshot(l, strconv.Itoa(r-2)); err != nil {
					b.Fatal(err)
				}
				deletes += time.Since(t1)
			}
		}
		for c := 0; c < 4; c++ {
			hc.Run(sys, luns, rng, 2048)
			sys.CP()
		}
		r++
	}
	for i := 0; i < 4; i++ { // until two generations of snapshots exist and the LUNs have left them
		round()
	}
	creates, deletes = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	calls := float64(b.N * len(luns))
	b.ReportMetric(float64(creates.Nanoseconds())/calls, "create_ns")
	b.ReportMetric(float64(deletes.Nanoseconds())/calls, "delete_ns")
}

// BenchmarkCacheOverhead quantifies the §4.1.2 claim that AA-cache
// maintenance is a vanishing share of the code path: it reports the modeled
// cache CPU as a fraction of total CPU over a measurement window.
func BenchmarkCacheOverhead(b *testing.B) {
	spec := GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 16, Media: MediaHDD}
	sys := NewSystem([]GroupSpec{spec},
		[]VolSpec{{Name: "v", Blocks: 1 << 20}}, DefaultTunables(), 2)
	lun := sys.Agg.Vols()[0].CreateLUN("l", 300_000)
	rng := rand.New(rand.NewSource(2))
	Age(sys, []*LUN{lun}, rng, 0.2)
	before := sys.Counters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Write(lun, uint64(rng.Intn(300_000)), 1)
	}
	b.StopTimer()
	sys.CP()
	d := sys.Counters().Sub(before)
	if d.CPUTime > 0 {
		b.ReportMetric(100*float64(d.CacheCPUTime)/float64(d.CPUTime), "cacheCPU%")
	}
}

// BenchmarkMountSeeded measures the TopAA seeded-mount path end to end.
func BenchmarkMountSeeded(b *testing.B) {
	spec := GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 17, Media: MediaHDD}
	sys := NewSystem([]GroupSpec{spec, spec},
		[]VolSpec{{Name: "v", Blocks: 1 << 21}}, DefaultTunables(), 3)
	lun := sys.Agg.Vols()[0].CreateLUN("l", 1<<19)
	rng := rand.New(rand.NewSource(3))
	Age(sys, []*LUN{lun}, rng, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Agg.Remount(true)
	}
}

// BenchmarkMountWalk measures the fallback full-bitmap-walk mount.
func BenchmarkMountWalk(b *testing.B) {
	spec := GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 17, Media: MediaHDD}
	sys := NewSystem([]GroupSpec{spec, spec},
		[]VolSpec{{Name: "v", Blocks: 1 << 21}}, DefaultTunables(), 4)
	lun := sys.Agg.Vols()[0].CreateLUN("l", 1<<19)
	rng := rand.New(rand.NewSource(4))
	Age(sys, []*LUN{lun}, rng, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Agg.Remount(false)
	}
}
