package main

import (
	"math/rand"
	"runtime"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/device"
	"waflfs/internal/hbps"
	"waflfs/internal/heapcache"
	"waflfs/internal/raid"
	"waflfs/internal/sim"
	"waflfs/internal/topaa"
)

// Layer replay. The window times the program from outside, so it cannot
// see the layers below wafl. After the window the replay drives each lower
// layer's public functions directly, on copies of the state the aged system
// ended in (its bitmaps, its score distribution, the free blocks of its
// best AA), and reports host ns and allocations per call. Multiplied by the
// program's own operation counts these give the estimated busy time of each
// layer inside a CP; what the estimate leaves of the CP span is
// wafl.cp_self_frac.

// timeCalls runs fn iters times and returns ns per call and allocations per
// call. fn receives the iteration index.
func timeCalls(iters int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(iters)
	return float64(el) / n, float64(m1.Mallocs-m0.Mallocs) / n
}

// replayIters is how many calls a cheap (sub-microsecond) replay times.
func replayIters(quick bool) int {
	if quick {
		return 2_000
	}
	return 200_000
}

// replay measures the lower layers on the state of the pass's system and
// returns their metrics plus the estimated share of CP time they explain.
func (p *pass) replay(quick bool) Metrics {
	m := Metrics{}
	in := p.d.in
	agg := in.sys.Agg
	iters := replayIters(quick)
	slow := iters / 1000 // iterations of a whole-structure (ms-scale) replay
	rng := rand.New(rand.NewSource(p.seed + 99))

	g := agg.Groups()[0]
	topo, geo := g.Topology(), g.Geometry()
	bm := agg.Bitmap().Clone()
	numAAs := topo.NumAAs()

	// aa + bitmap: the walk a bitmap-walk mount performs.
	var scores []uint64
	ns, allocs := timeCalls(slow, func(int) { scores = aa.ScoreAll(topo, bm) })
	m.set("aa.scoreall_ms", ns*msPerNS, slow)
	m.set("aa.scoreall_allocs", allocs, slow)
	ns, _ = timeCalls(iters, func(i int) { aa.Score(topo, bm, aa.ID(i%numAAs)) })
	m.set("bitmap.countfree_aa_ns", ns, iters)
	ns, _ = timeCalls(iters/10, func(i int) {
		for _, seg := range topo.Segments(aa.ID(i % numAAs)) {
			bm.FreeRuns(seg)
		}
	})
	m.set("bitmap.freeruns_aa_ns", ns, iters/10)

	// The virtual cursor's sweep: NextFree over the aged volume bitmap.
	vol := agg.Vols()[0]
	vbm := vol.Bitmap().Clone()
	space := block.R(0, block.VBN(vbm.Size()))
	cur := space.Start
	ns, _ = timeCalls(iters, func(int) {
		v, ok := vbm.NextFree(cur, space)
		if cur = v + 1; !ok || cur >= space.End {
			cur = space.Start
		}
	})
	m.set("bitmap.nextfree_ns", ns, iters)

	// The best AA's free blocks stand in for one CP's share of writes to
	// this group: what the allocator would hand to the tetris builder.
	best, _ := g.Cache().Best()
	var free []block.VBN
	for _, seg := range topo.Segments(best.ID) {
		bm.ForEachFreeRun(seg, func(run block.Range) bool {
			for v := run.Start; v < run.End; v++ {
				free = append(free, v)
			}
			return true
		})
	}
	if max := cpEvery * 2 / len(agg.Groups()); len(free) > max {
		free = free[:max]
	}
	if len(free) == 0 {
		free = []block.VBN{geo.VBNRange().Start}
	}
	ns, _ = timeCalls(iters, func(i int) {
		v := free[i%len(free)]
		if i%(2*len(free)) < len(free) {
			bm.Set(v)
		} else {
			bm.Clear(v)
		}
	})
	m.set("bitmap.setclear_ns", ns, iters)

	// heapcache at the aged score distribution.
	var cache *heapcache.Cache
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns, _ = timeCalls(slow, func(int) { cache = heapcache.NewFromScores(scores) })
	runtime.ReadMemStats(&m1)
	m.set("heapcache.fromscores_ms", ns*msPerNS, slow)
	m.set("heapcache.bytes_per_aa", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(slow)/float64(numAAs), slow)
	ns, _ = timeCalls(iters, func(int) {
		id := aa.ID(rng.Intn(numAAs))
		cache.Update(id, uint64(rng.Int63n(int64(aa.Capacity(topo, id))+1)))
	})
	m.set("heapcache.update_ns", ns, iters)
	ns, _ = timeCalls(iters, func(int) {
		e, _ := cache.PopBest()
		cache.Insert(e.ID, e.Score/2)
	})
	m.set("heapcache.popreinsert_ns", ns, iters)

	// hbps at the volume's aged score distribution.
	vtopo := aa.NewLinearDefault(space)
	vscores := aa.Scores(vtopo, vbm, 1)
	h := hbps.New(hbps.DefaultConfig())
	for id, sc := range vscores {
		h.Track(aa.ID(id), uint32(sc))
	}
	cur32 := make([]uint32, len(vscores))
	for i, sc := range vscores {
		cur32[i] = uint32(sc)
	}
	ns, _ = timeCalls(iters, func(int) {
		id := rng.Intn(len(cur32))
		next := uint32(rng.Int63n(int64(aa.Capacity(vtopo, aa.ID(id))) + 1))
		h.Update(aa.ID(id), cur32[id], next)
		cur32[id] = next
	})
	m.set("hbps.update_ns", ns, iters)
	ns, _ = timeCalls(iters, func(int) {
		if id, ok := h.PopBest(); ok {
			h.Untrack(id, cur32[id])
			h.Track(id, cur32[id])
		}
	})
	m.set("hbps.pop_track_ns", ns, iters)
	ns, _ = timeCalls(slow, func(int) {
		h.Replenish(func(yield func(aa.ID, uint32)) {
			for id, sc := range cur32 {
				yield(aa.ID(id), sc)
			}
		})
	})
	m.set("hbps.replenish_us", ns/1e3, slow)
	var page []byte
	ns, _ = timeCalls(slow, func(int) { page = h.Marshal() })
	m.set("hbps.marshal_us", ns/1e3, slow)
	m.set("hbps.bytes", float64(len(page)), 0)
	ns, _ = timeCalls(slow, func(int) {
		if _, err := hbps.Load(page); err != nil {
			panic(err)
		}
	})
	m.set("hbps.load_us", ns/1e3, slow)

	// topaa: encode, persist and reload the group cache.
	cache = heapcache.NewFromScores(scores)
	ns, _ = timeCalls(slow, func(int) {
		if _, err := topaa.MarshalRAIDAware(cache.TopK(topaa.RAIDAwareEntries)); err != nil {
			panic(err)
		}
	})
	m.set("topaa.marshal_us", ns/1e3, slow)
	store := topaa.NewStore()
	store.BeginGeneration()
	ns, _ = timeCalls(slow, func(int) {
		if err := store.SaveRAIDAware("rg0", cache); err != nil {
			panic(err)
		}
	})
	m.set("topaa.save_us", ns/1e3, slow)
	ns, _ = timeCalls(slow, func(int) {
		if _, _, err := store.LoadRAIDAware("rg0"); err != nil {
			panic(err)
		}
	})
	m.set("topaa.load_us", ns/1e3, slow)

	// raid: classify the free blocks into tetrises.
	var tetrises []raid.TetrisIO
	ns, allocs = timeCalls(slow, func(int) { tetrises = raid.BuildTetrises(geo, free) })
	m.set("raid.tetris_ns_per_block", ns/float64(len(free)), slow)
	m.set("raid.tetris_allocs_per_call", allocs, slow)

	// device: charge those tetrises' chains to fresh models of this
	// workload's medium.
	var chains []raid.Chain
	for _, t := range tetrises {
		chains = append(chains, t.Chains...)
	}
	devBlocks := geo.BlocksPerDevice
	var dev interface {
		WriteChain(start, n uint64) time.Duration
	}
	name := "device.hdd_chain_ns"
	switch in.media() {
	case aa.MediaSSD:
		cfg := device.DefaultSSDConfig(devBlocks)
		cfg.FTL.PagesPerEraseBlock = g.Spec.EraseBlockBlocks
		cfg.FTL.Overprovision = g.Spec.Overprovision
		dev, name = device.NewSSD(cfg), "device.ssd_chain_ns"
		ftl := device.NewHybridFTL(device.HybridFTLConfig{
			LogicalBlocks: devBlocks, PagesPerEraseBlock: g.Spec.EraseBlockBlocks, Overprovision: g.Spec.Overprovision,
		})
		ns, _ = timeCalls(iters, func(int) { ftl.Write(uint64(rng.Int63n(int64(devBlocks)))) })
		m.set("device.hybrid_write_ns", ns, iters)
	case aa.MediaSMR:
		// AZCS stores a checksum block per 63 data blocks; size the drive
		// for the on-disk span.
		dev, name = device.NewSMR(device.DataToDiskDBN(devBlocks-1)+block.AZCSRegionBlocks, g.Spec.ZoneBlocks), "device.smr_chain_ns"
	default:
		dev = device.DefaultHDD()
	}
	ns, _ = timeCalls(iters, func(i int) {
		c := chains[i%len(chains)]
		dev.WriteChain(c.Start, c.Len)
	})
	m.set(name, ns, iters)

	// sim: the MVA sweep the reporting path runs over the window's demands.
	centers := p.centers()
	clients := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	var res []sim.Result
	ns, _ = timeCalls(slow, func(int) { res = sim.Sweep(centers, modelThink, clients) })
	m.set("sim.sweep_us", ns/1e3, slow)
	_, util := sim.Bottleneck(res[len(res)-1])
	m.set("sim.bottleneck_util", util, 0)

	// obs: one full registry snapshot, the unit of work every armed sink
	// pays per CP.
	ns, _ = timeCalls(slow, func(int) { in.sys.Registry().Snapshot() })
	m.set("obs.snapshot_us", ns/1e3, slow)
	return m
}

// cpSelfFrac estimates what share of the window's CP time is spent in wafl
// itself: the CP spans' total minus each lower layer's estimated busy time,
// the program's own op counts times the replay's ns per call.
func (p *pass) cpSelfFrac(layers Metrics) float64 {
	c := p.m1.c.Sub(p.m0.c)
	var cpTotal float64
	for _, d := range p.windowDurations(spanCP, spanDrain) {
		cpTotal += d
	}
	if cpTotal == 0 {
		return 0
	}
	v := func(name string) float64 { return layers[name].Value }
	kops := float64(c.Ops) / 1e3
	written, freed := float64(c.BlocksWritten), float64(c.BlocksFreed)
	writeIOs := float64(p.m1.writeIOs - p.m0.writeIOs)
	// Every CP saves one TopAA block per group (TopK + encode + protect) and
	// two per volume (the HBPS pages as they are + protect).
	agg := p.d.in.sys.Agg
	protect := v("topaa.save_us") - v("topaa.marshal_us")
	if protect < 0 {
		protect = 0
	}
	saves := float64(len(agg.Groups()))*v("topaa.save_us") + float64(len(agg.Vols()))*(v("hbps.marshal_us")+2*protect)
	child := 2*(written+freed)*v("bitmap.setclear_ns") + // physical + virtual bit per block
		written*v("bitmap.nextfree_ns") +
		kops*v("heapcache.ops_per_kop")*v("heapcache.update_ns") +
		kops*v("hbps.ops_per_kop")*v("hbps.update_ns") +
		written*v("raid.tetris_ns_per_block") +
		writeIOs*(v("device.ssd_chain_ns")+v("device.hdd_chain_ns")+v("device.smr_chain_ns")) +
		float64(c.CPs)*saves*1e3
	if p.d.in.obs != nil {
		child += float64(c.CPs) * v("obs.snapshot_us") * 1e3
	}
	return 1 - child/cpTotal
}
