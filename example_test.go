package waflfs_test

import (
	"fmt"
	"math/rand"
	"time"

	"waflfs"
	"waflfs/internal/aa"
	"waflfs/internal/obs/fragscan"
	"waflfs/internal/stats"
	"waflfs/internal/wafl"
)

// Example walks the core write path: build an aggregate, write through a
// consistency point, and observe the copy-on-write allocation.
func Example() {
	specs := []waflfs.GroupSpec{{
		DataDevices: 4, ParityDevices: 1,
		BlocksPerDevice: 1 << 15, Media: waflfs.MediaHDD,
	}}
	vols := []waflfs.VolSpec{{Name: "vol0", Blocks: 4 * waflfs.RAIDAgnosticAABlocks}}
	sys := waflfs.NewSystem(specs, vols, waflfs.DefaultTunables(), 42)

	lun := sys.Agg.Vols()[0].CreateLUN("lun0", 10_000)
	sys.Write(lun, 7, 1)
	sys.CP()
	first := lun.Phys(7)

	sys.Write(lun, 7, 1) // overwrite: COW allocates a fresh block
	sys.CP()

	fmt.Println("block moved:", first != lun.Phys(7))
	fmt.Println("blocks freed:", sys.Counters().BlocksFreed)
	// Output:
	// block moved: true
	// blocks freed: 1
}

// Example_quickstart builds an aggregate of two RAID groups hosting one
// FlexVol, writes a LUN through consistency points, and watches the
// copy-on-write allocator and the AA caches at work.
func Example_quickstart() {
	// Two RAID groups of (6 data + 1 parity) HDDs, 512MiB per device.
	spec := waflfs.GroupSpec{
		DataDevices:     6,
		ParityDevices:   1,
		BlocksPerDevice: 1 << 17,
		Media:           waflfs.MediaHDD,
	}
	vols := []waflfs.VolSpec{{Name: "vol0", Blocks: 1 << 20}}
	sys := waflfs.NewSystem([]waflfs.GroupSpec{spec, spec}, vols, waflfs.DefaultTunables(), 42)

	vol := sys.Agg.Vols()[0]
	lun := vol.CreateLUN("lun0", 200_000)

	// Write the first 50k blocks sequentially; WAFL buffers the dirty
	// blocks and allocates their dual VBNs (virtual + physical) when the
	// consistency point commits.
	for lba := uint64(0); lba < 50_000; lba++ {
		sys.Write(lun, lba, 1)
	}
	sys.CP()

	fmt.Printf("after sequential fill:\n")
	fmt.Printf("  aggregate used: %.1f%%   volume used: %.1f%%\n",
		100*sys.Agg.UsedFraction(), 100*vol.UsedFraction())
	fmt.Printf("  lba 0 -> virtual %v, physical %v\n", lun.Virt(0), lun.Phys(0))

	// Overwrite the same range: copy-on-write allocates fresh blocks and
	// frees the old ones.
	oldPhys := lun.Phys(0)
	for lba := uint64(0); lba < 50_000; lba++ {
		sys.Write(lun, lba, 1)
	}
	sys.CP()
	fmt.Printf("\nafter overwriting the same range (COW):\n")
	fmt.Printf("  lba 0 physical moved: %v -> %v\n", oldPhys, lun.Phys(0))
	c := sys.Counters()
	fmt.Printf("  blocks written: %d, blocks freed: %d, CPs: %d\n",
		c.BlocksWritten, c.BlocksFreed, c.CPs)

	// The RAID-aware AA cache always knows the emptiest region of each
	// group; the FlexVol's two-page HBPS does the same for virtual VBNs.
	for _, g := range sys.Agg.Groups() {
		if best, ok := g.Cache().Best(); ok {
			fmt.Printf("  group %d best AA: %d (score %d free blocks)\n",
				g.Index, best.ID, best.Score)
		}
	}
	fmt.Printf("  full-stripe fraction: %.3f (sequential writes into empty AAs)\n",
		sys.Agg.Groups()[0].RAIDStats().FullStripeFraction())
	// Output:
	// after sequential fill:
	//   aggregate used: 3.2%   volume used: 4.8%
	//   lba 0 -> virtual vbn(0), physical vbn(0)
	//
	// after overwriting the same range (COW):
	//   lba 0 physical moved: vbn(0) -> vbn(3904)
	//   blocks written: 100000, blocks freed: 50000, CPs: 26
	//   group 0 best AA: 2 (score 24576 free blocks)
	//   group 1 best AA: 0 (score 24576 free blocks)
	//   full-stripe fraction: 1.000 (sequential writes into empty AAs)
}

// Example_failover shows the TopAA metafile (§3.4): after a crash, the
// partner node must mount the aggregate and its FlexVols and cannot begin
// write allocation until the AA caches are operational. With TopAA the
// caches are seeded from a few metafile blocks; without it (or when the
// metafile is damaged), a linear walk of the bitmap metafiles is needed.
func Example_failover() {
	spec := waflfs.GroupSpec{
		DataDevices: 6, ParityDevices: 1,
		BlocksPerDevice: 1 << 17, Media: waflfs.MediaHDD,
	}
	var vols []waflfs.VolSpec
	for i := 0; i < 10; i++ {
		vols = append(vols, waflfs.VolSpec{
			Name:   fmt.Sprintf("vol%d", i),
			Blocks: 8 * waflfs.RAIDAgnosticAABlocks,
		})
	}
	sys := waflfs.NewSystem([]waflfs.GroupSpec{spec, spec}, vols, waflfs.DefaultTunables(), 3)

	// Run some traffic so the file system has real state, ending on a CP
	// (which persists the TopAA metafiles).
	lun := sys.Agg.Vols()[0].CreateLUN("lun0", 150_000)
	rng := rand.New(rand.NewSource(3))
	waflfs.Age(sys, []*waflfs.LUN{lun}, rng, 0.4)

	// Crash + takeover: remount reading the TopAA metafiles.
	ms := sys.Agg.Remount(true)
	fmt.Println("mount with TopAA metafiles:")
	fmt.Printf("  metafile blocks read: %d (1 per RAID group + 2 per volume)\n", ms.TopAABlockReads)
	fmt.Printf("  bitmap pages walked:  %d\n", ms.BitmapPagesRead)
	fmt.Printf("  cache inserts:        %d (seeded with the 512 best AAs per group)\n", ms.CacheInserts)

	// Client operations are served on the seed while background work
	// rebuilds the full heaps.
	for i := 0; i < 5_000; i++ {
		sys.Write(lun, uint64(rng.Intn(150_000)), 1)
	}
	sys.CP()
	inserted := sys.Agg.CompleteBackgroundFill()
	fmt.Printf("  background fill inserted %d remaining AAs after service resumed\n\n", inserted)

	// Same crash, but without TopAA: the mount must walk every bitmap.
	ms = sys.Agg.Remount(false)
	fmt.Println("mount without TopAA metafiles (full bitmap walk):")
	fmt.Printf("  bitmap pages walked:  %d — grows linearly with file-system size\n", ms.BitmapPagesRead)

	// Damage one volume's TopAA metafile: mount falls back to the walk for
	// that volume only (the recomputation WAFL Iron performs online).
	sys.CP() // re-persist metafiles
	if err := sys.Agg.Store().Corrupt("vol3", 5); err != nil {
		panic(err)
	}
	ms = sys.Agg.Remount(true)
	fmt.Println("\nmount with one damaged TopAA metafile:")
	fmt.Printf("  fallbacks: %d (only vol3 walked its bitmap: %d pages)\n",
		ms.Fallbacks, ms.BitmapPagesRead)
	// Output:
	// mount with TopAA metafiles:
	//   metafile blocks read: 22 (1 per RAID group + 2 per volume)
	//   bitmap pages walked:  0
	//   cache inserts:        62 (seeded with the 512 best AAs per group)
	//   background fill inserted 2 remaining AAs after service resumed
	//
	// mount without TopAA metafiles (full bitmap walk):
	//   bitmap pages walked:  128 — grows linearly with file-system size
	//
	// mount with one damaged TopAA metafile:
	//   fallbacks: 1 (only vol3 walked its bitmap: 8 pages)
}

// Example_oltpaging reproduces §4.2 in miniature: an aggregate whose RAID
// groups have aged differently serves an OLTP workload, and the write
// allocator — guided by per-group AA caches and the fragmentation bias —
// directs more blocks to the fresher groups while keeping equally aged disks
// balanced.
func Example_oltpaging() {
	tun := waflfs.DefaultTunables()
	tun.MinAAScoreFraction = 0.05 // skip groups whose best AA is badly fragmented

	spec := waflfs.GroupSpec{
		DataDevices: 6, ParityDevices: 1,
		BlocksPerDevice: 1 << 16, Media: waflfs.MediaHDD,
	}
	specs := []waflfs.GroupSpec{spec, spec, spec, spec}
	aggBlocks := uint64(4*6) << 16
	lunBlocks := uint64(float64(aggBlocks) * 0.85)

	sys := waflfs.NewSystem(specs,
		[]waflfs.VolSpec{{Name: "db", Blocks: lunBlocks * 2}}, tun, 11)
	lun := sys.Agg.Vols()[0].CreateLUN("tables", lunBlocks)
	rng := rand.New(rand.NewSource(11))

	// Age the whole aggregate, then empty RG2/RG3 (recently added storage)
	// and thin RG0/RG1 to a fragmented ~50%.
	waflfs.Age(sys, []*waflfs.LUN{lun}, rng, 0.4)
	young0 := sys.Agg.Groups()[2].Geometry().VBNRange()
	young1 := sys.Agg.Groups()[3].Geometry().VBNRange()
	sys.PunchHoles(lun, func(lba uint64) bool {
		p := lun.Phys(lba)
		if young0.Contains(p) || young1.Contains(p) {
			return true
		}
		return rng.Float64() < 0.45
	})
	sys.CP()

	// Snapshot, run OLTP, report per-group write rates.
	type snap struct{ blocks, tetrises uint64 }
	pre := make([]snap, 4)
	for i, g := range sys.Agg.Groups() {
		st := g.RAIDStats()
		pre[i] = snap{st.BlocksWritten, st.Tetrises}
	}
	waflfs.DefaultOLTP().Run(sys, []*waflfs.LUN{lun}, rng, 200_000)
	sys.CP()

	fmt.Println("OLTP on an aggregate with imbalanced aging:")
	fmt.Printf("%-5s %-6s %-10s %-10s %s\n", "group", "aged", "blocks", "tetrises", "blocks/tetris")
	for i, g := range sys.Agg.Groups() {
		st := g.RAIDStats()
		blocks := st.BlocksWritten - pre[i].blocks
		tets := st.Tetrises - pre[i].tetrises
		aged := "yes"
		if i >= 2 {
			aged = "no"
		}
		bpt := 0.0
		if tets > 0 {
			bpt = float64(blocks) / float64(tets)
		}
		fmt.Printf("RG%-3d %-6s %-10d %-10d %.1f\n", i, aged, blocks, tets, bpt)
	}
	fmt.Println("\nFresh groups absorb more blocks; aged groups fit fewer blocks per")
	fmt.Println("tetris because their free space is fragmented (§4.2, Fig. 7).")
	// Output:
	// OLTP on an aggregate with imbalanced aging:
	// group aged   blocks     tetrises   blocks/tetris
	// RG0   yes    15485      76         203.8
	// RG1   yes    13337      70         190.5
	// RG2   no     18816      49         384.0
	// RG3   no     18520      49         378.0
	//
	// Fresh groups absorb more blocks; aged groups fit fewer blocks per
	// tetris because their free space is fragmented (§4.2, Fig. 7).
}

// Example_ssdtuning shows why allocation-area size must match the SSD erase
// unit (§3.2.2): the same aged random-write workload is run with the
// historical HDD AA size (half an erase unit) and with an AA sized at a
// multiple of the erase unit, and the drives' write amplification and device
// time are compared.
func Example_ssdtuning() {
	run := func(stripesPerAA uint64, label string) {
		perDevice := uint64(1 << 17)
		eraseUnit := uint64(2048) // 8MiB erase unit
		spec := waflfs.GroupSpec{
			DataDevices:      6,
			ParityDevices:    1,
			BlocksPerDevice:  perDevice,
			Media:            waflfs.MediaSSD,
			EraseBlockBlocks: eraseUnit,
			StripesPerAA:     stripesPerAA, // 0 = derived from media (4x erase unit)
			Overprovision:    0.10,
		}
		lunBlocks := uint64(float64(6*perDevice) * 0.85)
		sys := waflfs.NewSystem([]waflfs.GroupSpec{spec},
			[]waflfs.VolSpec{{Name: "v", Blocks: lunBlocks * 2}}, waflfs.DefaultTunables(), 7)
		lun := sys.Agg.Vols()[0].CreateLUN("l", lunBlocks)
		rng := rand.New(rand.NewSource(7))

		// Age to 85% full, then churn.
		waflfs.Age(sys, []*waflfs.LUN{lun}, rng, 0.6)

		// Measure a random-overwrite window.
		before := sys.Counters()
		waflfs.RandomOverwrite(sys, []*waflfs.LUN{lun}, rng, 100_000, 1)
		sys.CP()
		d := sys.Counters().Sub(before)

		g := sys.Agg.Groups()[0]
		fmt.Printf("%-22s stripes/AA=%-6d AAs=%-4d WA=%.2f device-time/op=%v\n",
			label, g.Topology().StripesPerAA(), g.Topology().NumAAs(),
			sys.WriteAmplification(),
			(d.DeviceBusy / time.Duration(d.Ops)).Round(time.Microsecond))
	}

	fmt.Println("SSD AA sizing on an aged (85% full) all-flash aggregate:")
	run(1024, "HDD-sized AA")     // half an erase unit: partial-EB merges
	run(0, "erase-unit-sized AA") // 4x erase unit: switch merges
	fmt.Println("\nLarger, erase-aligned AAs reduce FTL merge copying (write amplification),")
	fmt.Println("which extends drive lifetime and lowers device time per operation (§4.3).")
	// Output:
	// SSD AA sizing on an aged (85% full) all-flash aggregate:
	// HDD-sized AA           stripes/AA=1024   AAs=128  WA=1.56 device-time/op=666µs
	// erase-unit-sized AA    stripes/AA=8192   AAs=16   WA=1.48 device-time/op=488µs
	//
	// Larger, erase-aligned AAs reduce FTL merge copying (write amplification),
	// which extends drive lifetime and lowers device time per operation (§4.3).
}

// Example_tiering shows the RAID-agnostic allocation path for natively
// redundant storage (§3.3.2): an all-SSD performance tier plus an object
// store (FabricPool). Cold blocks are tiered out through HBPS-guided,
// colocated pool allocation; snapshots pin shared blocks correctly across
// the move.
func Example_tiering() {
	spec := waflfs.GroupSpec{
		DataDevices: 6, ParityDevices: 1,
		BlocksPerDevice: 1 << 16, Media: waflfs.MediaSSD,
	}
	sys := waflfs.NewSystem([]waflfs.GroupSpec{spec},
		[]waflfs.VolSpec{{Name: "vol0", Blocks: 1 << 20}}, waflfs.DefaultTunables(), 13)
	pool := sys.Agg.AddObjectPool(waflfs.PoolSpec{Blocks: 8 * waflfs.RAIDAgnosticAABlocks})

	lun := sys.Agg.Vols()[0].CreateLUN("archive", 300_000)
	rng := rand.New(rand.NewSource(13))

	// Write a data set and keep a snapshot of it.
	for lba := uint64(0); lba < 250_000; lba++ {
		sys.Write(lun, lba, 1)
	}
	sys.CP()
	sys.CreateSnapshot(lun, "backup")
	fmt.Printf("performance tier used: %.1f%%\n", 100*sys.Agg.UsedFraction())

	// Recent activity touches only the last fifth; everything older is
	// cold. Tier the cold range out to the object store.
	for i := 0; i < 30_000; i++ {
		sys.Write(lun, 200_000+uint64(rng.Intn(100_000)), 1)
	}
	sys.CP()
	moved := sys.TierOut(lun, func(lba uint64) bool { return lba < 200_000 })
	sys.CP()

	st := pool.Stats()
	fmt.Printf("\ntiered out %d cold blocks:\n", moved)
	fmt.Printf("  object PUTs: %d (4MiB objects — blocks buffered per CP)\n", st.Puts)
	fmt.Printf("  pool range:  %v\n", pool.Range())
	fmt.Printf("  lba 0 now at %v (pool), lba 249999 at %v (SSD tier)\n",
		lun.Phys(0), lun.Phys(249_999))

	// The snapshot's pointers moved with the data — no duplicate copies.
	sn := lun.Snapshot("backup")
	fmt.Printf("  snapshot %q still references %d blocks, shared with the live image\n",
		sn.Name, sn.Blocks())

	// Reads from the cold tier pay object-store GETs.
	before := sys.Counters().DeviceBusy
	sys.Read(lun, 0, 1)
	cold := sys.Counters().DeviceBusy - before
	before = sys.Counters().DeviceBusy
	sys.Read(lun, 249_999, 1)
	hot := sys.Counters().DeviceBusy - before
	fmt.Printf("\nread latency: cold (object GET) %v vs hot (SSD) %v\n", cold, hot)

	// Overwriting cold data brings it back to the performance tier and
	// frees the pool block.
	sys.Write(lun, 0, 1)
	sys.CP()
	fmt.Printf("after overwriting lba 0 it lives at %v (back on the SSD tier)\n", lun.Phys(0))
	// Output:
	// performance tier used: 38.1%
	//
	// tiered out 200000 cold blocks:
	//   object PUTs: 196 (4MiB objects — blocks buffered per CP)
	//   pool range:  [393216,655360)
	//   lba 0 now at vbn(393216) (pool), lba 249999 at vbn(238914) (SSD tier)
	//   snapshot "backup" still references 250000 blocks, shared with the live image
	//
	// read latency: cold (object GET) 15.008ms vs hot (SSD) 80µs
	// after overwriting lba 0 it lives at vbn(47259) (back on the SSD tier)
}

// Example_aging ages an all-SSD file system in steps and reports how
// free-space fragmentation evolves, the phenomenon that motivates the paper
// (§2.2). Each step's row comes from the fragscan analyzer, which scans every
// space at CP boundaries: longest free run, mean free-extent length,
// fully-free-stripe fraction, the AA cache's pick quality, and write
// amplification. The table's rows are printed without their trailing
// padding, which an Output block cannot hold.
func Example_aging() {
	const (
		steps     = 6
		churnStep = 0.25 // random-overwrite churn per step, as a fraction of the data
		fill      = 0.55
		perDev    = 1 << 17
		seed      = 7
	)
	rec := fragscan.NewRecorder()
	tun := waflfs.DefaultTunables()
	tun.Obs = &wafl.ObsOptions{Name: "aging", Frag: rec}

	spec := waflfs.GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: perDev, Media: waflfs.MediaSSD}
	aggBlocks := uint64(2 * 6 * perDev)
	lunBlocks := uint64(float64(aggBlocks) * fill)
	s := waflfs.NewSystem([]waflfs.GroupSpec{spec, spec},
		[]waflfs.VolSpec{{Name: "vol0", Blocks: lunBlocks * 2}}, tun, seed)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", lunBlocks)
	rng := rand.New(rand.NewSource(seed))

	waflfs.SequentialFill(s, lun, 1)
	s.CP()

	tb := stats.Table{
		Title: fmt.Sprintf("aging on %s (fill %.0f%%, %.2fx churn per step)", waflfs.MediaSSD, 100*fill, churnStep),
		Columns: []string{"step", "churn", "longest free run", "mean run",
			"free-stripe frac", "picked free frac", "write amp"},
	}
	// Picks are sparse per CP (a group re-picks only when its AA drains), so
	// the table aggregates pick quality over each step's whole CP window
	// instead of showing the final CP's — usually empty — window.
	var lastCP uint64
	report := func(step int, churn float64) {
		rep, ok := rec.Last("aging.rg0")
		if !ok {
			return
		}
		var picks uint64
		var weighted float64
		for _, r := range rec.Reports() {
			if r.Space == "aging.rg0" && r.CP > lastCP {
				picks += r.Picks
				weighted += r.PickedFreeFrac * float64(r.Picks)
			}
		}
		lastCP = rep.CP
		picked := 0.0
		if picks > 0 {
			picked = weighted / float64(picks)
		}
		tb.AddRow(step, fmt.Sprintf("%.2fx", churn),
			rep.LongestRun,
			fmt.Sprintf("%.1f", rep.MeanRun),
			fmt.Sprintf("%.3f", rep.FreeStripeFrac),
			fmt.Sprintf("%.3f", picked),
			fmt.Sprintf("%.2f", s.WriteAmplification()))
	}
	report(0, 0)
	for step := 1; step <= steps; step++ {
		s.ResetMetrics()
		ops := int(churnStep * float64(lunBlocks))
		waflfs.RandomOverwrite(s, []*waflfs.LUN{lun}, rng, ops, 1)
		s.CP()
		report(step, float64(step)*churnStep)
	}
	fmt.Print(tb.String())
	// Output:
	// == aging on SSD (fill 55%, 0.25x churn per step) ==
	// step  churn  longest free run  mean run  free-stripe frac  picked free frac  write amp
	// 0     0.00x  63040             9041.6    0.483             1.000             1.00
	// 1     0.25x  45983             4.8       0.353             1.000             1.00
	// 2     0.50x  26704             2.8       0.210             1.000             1.00
	// 3     0.75x  9148              2.3       0.087             1.000             1.00
	// 4     1.00x  55                2.2       0.035             0.717             1.01
	// 5     1.25x  58                2.3       0.046             0.678             1.05
	// 6     1.50x  46                2.3       0.045             0.744             1.08
}

// Example_inspect fills and ages an all-SSD aggregate and dumps the
// allocator-visible state: per-RAID-group AA score distributions, the heap
// cache's best AAs, the FlexVol's HBPS histogram as its TopAA metafile
// persists it, and the metafile store's I/O. A running waflbench serves the
// same system's metric registry at /metrics (-metrics-addr).
func Example_inspect() {
	const (
		groups  = 2
		devices = 6
		perDev  = 1 << 17
		fill    = 0.6
		churn   = 0.5
		seed    = 1
	)
	spec := waflfs.GroupSpec{
		DataDevices: devices, ParityDevices: 1,
		BlocksPerDevice: perDev, Media: waflfs.MediaSSD,
	}
	specs := []waflfs.GroupSpec{spec, spec}
	aggBlocks := uint64(groups * devices * perDev)
	lunBlocks := uint64(float64(aggBlocks) * fill)

	s := waflfs.NewSystem(specs, []waflfs.VolSpec{{Name: "vol0", Blocks: lunBlocks * 2}}, waflfs.DefaultTunables(), seed)
	rng := rand.New(rand.NewSource(seed))
	lun := s.Agg.Vols()[0].CreateLUN("lun0", lunBlocks)
	waflfs.Age(s, []*waflfs.LUN{lun}, rng, churn)

	fmt.Printf("aggregate: %d blocks (%d groups x %d devices x %d), %.1f%% used\n",
		s.Agg.Blocks(), groups, devices, perDev, 100*s.Agg.UsedFraction())

	for _, g := range s.Agg.Groups() {
		topo := g.Topology()
		fmt.Printf("\nRAID group %d: media=%s stripes/AA=%d AAs=%d\n",
			g.Index, g.Spec.Media, topo.StripesPerAA(), topo.NumAAs())

		// Score histogram over 10 buckets of fullness.
		var buckets [10]int
		maxScore := topo.BlocksPerAA()
		for id := 0; id < topo.NumAAs(); id++ {
			sc := aa.Score(topo, s.Agg.Bitmap(), aa.ID(id))
			b := int(10 * sc / (maxScore + 1))
			buckets[b]++
		}
		fmt.Println("  AA free-fraction histogram (0-10% .. 90-100% free):")
		fmt.Print("  ")
		for _, n := range buckets {
			fmt.Printf("%6d", n)
		}
		fmt.Println()

		top := g.Cache().TopK(5)
		fmt.Println("  best AAs (heap cache):")
		for _, e := range top {
			fmt.Printf("    AA %-6d score %-6d (%.1f%% free)\n",
				e.ID, e.Score, 100*float64(e.Score)/float64(maxScore))
		}
	}

	for _, v := range s.Agg.Vols() {
		// Round-trip the volume's HBPS through its TopAA metafile — the
		// same bytes a mount would read — so what is shown is exactly
		// what is persisted.
		h, _, err := s.Agg.Store().LoadAgnostic(v.Name)
		if err != nil {
			panic(err)
		}
		fmt.Printf("\nFlexVol %q: %d blocks, %.1f%% used; HBPS: %d AAs tracked, %d listed\n",
			v.Name, v.Blocks(), 100*v.UsedFraction(), h.Total(), h.ListLen())
		fmt.Println("  histogram bins (best to worst score range):")
		fmt.Print("  ")
		for b := 0; b < h.NumBins(); b++ {
			if b > 0 && b%16 == 0 {
				fmt.Print("\n  ")
			}
			fmt.Printf("%5d", h.BinCount(b))
		}
		fmt.Println()
	}

	reads, writes := s.Agg.Store().Stats()
	fmt.Printf("\nTopAA metafile store: %d block reads, %d block writes\n", reads, writes)
	// Output:
	// aggregate: 1572864 blocks (2 groups x 6 devices x 131072), 60.0% used
	//
	// RAID group 0: media=SSD stripes/AA=4096 AAs=32
	//   AA free-fraction histogram (0-10% .. 90-100% free):
	//        2     2     2    17     4     0     0     0     1     4
	//   best AAs (heap cache):
	//     AA 28     score 24576  (100.0% free)
	//     AA 29     score 24576  (100.0% free)
	//     AA 30     score 24576  (100.0% free)
	//     AA 31     score 24576  (100.0% free)
	//     AA 12     score 10091  (41.1% free)
	//
	// RAID group 1: media=SSD stripes/AA=4096 AAs=32
	//   AA free-fraction histogram (0-10% .. 90-100% free):
	//        2     3     2     7    17     0     0     0     0     1
	//   best AAs (heap cache):
	//     AA 31     score 24576  (100.0% free)
	//     AA 12     score 10103  (41.1% free)
	//     AA 11     score 10053  (40.9% free)
	//     AA 16     score 9991   (40.7% free)
	//     AA 2      score 9988   (40.6% free)
	//
	// FlexVol "vol0": 1887436 blocks, 50.0% used; HBPS: 58 AAs tracked, 58 listed
	//   histogram bins (best to worst score range):
	//      13    0    0    0    0    1    0    0    0    0    0    0    1    0    0    0
	//       0    0    0   30    1    1    2    1    1    1    1    1    1    1    1    1
	//
	// TopAA metafile store: 2 block reads, 1384 block writes
}
