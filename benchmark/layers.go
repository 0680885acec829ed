package main

import "waflfs/internal/stats"

// layerMetrics computes the per-layer metrics that come from the traced
// pass itself: window deltas of the program's public counters, and medians
// and tails over the recorded spans. The replay metrics, the estimates
// built on them, and the cross-pass ratios are added by the caller.
func (p *pass) layerMetrics() Metrics {
	m := Metrics{}
	d := p.d
	in := d.in
	c := p.m1.c.Sub(p.m0.c)
	kops := float64(c.Ops) / 1e3

	// spanStats sets a span kind's median (when asked for) and its tail by
	// the percentile rule, recording which percentile the count supported.
	spanStats := func(p50, p99 string, xs []float64, scale float64) {
		sum := stats.Summarize(xs)
		if p50 != "" {
			m.set(p50, sum.Percentile(50)*scale, len(xs))
		}
		pct := tailPercentile(len(xs))
		m[p99] = Value{Value: sum.Percentile(pct) * scale, Unit: mustMetric(p99).Unit, N: len(xs), Pct: pct}
	}
	spanStats("wafl.write_ns_p50", "wafl.write_ns_p99", d.rec.opDurations(spanWrite), 1)
	spanStats("wafl.read_ns_p50", "wafl.read_ns_p99", d.rec.opDurations(spanRead), 1)
	cps := p.windowDurations(spanCP, spanDrain)
	spanStats("", "wafl.cp_ms_p99", cps, msPerNS)
	var cpMallocs, cpBytes float64
	for _, s := range d.rec.spans[:p.mark] {
		cpMallocs += float64(s.Mallocs)
		cpBytes += float64(s.Bytes)
	}
	if n := float64(len(cps)); n > 0 {
		m.set("wafl.cp_allocs", cpMallocs/n, len(cps))
		m.set("wafl.cp_bytes", cpBytes/n, len(cps))
	}
	m.set("wafl.bytes_per_op", float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)/float64(d.clientOps), 0)
	m.set("wafl.blocks_per_cp", stats.Ratio(float64(c.BlocksWritten), float64(c.CPs)), 0)
	m.set("wafl.cp_count", float64(c.CPs), 0)

	creates, deletes := p.windowDurations(spanSnapCreate), p.windowDurations(spanSnapDelete)
	m.set("wafl.snap_create_ms_p50", median(creates)*msPerNS, len(creates))
	m.set("wafl.snap_delete_ms_p50", median(deletes)*msPerNS, len(deletes))
	serial := p.m1.pipe.SerialWall - p.m0.pipe.SerialWall
	piped := p.m1.pipe.PipelinedWall - p.m0.pipe.PipelinedWall
	m.set("wafl.overlap_gain", stats.Ratio(float64(serial), float64(piped)), 0)
	m.set("wafl.alloc_stalls", float64(p.m1.stalls), 0)
	m.set("wafl.delayed_pending_end", float64(p.m1.pending), 0)
	for _, s := range d.rec.spans[p.mark:] {
		if s.kind == spanScrub {
			m.set("wafl.scrub_ms", float64(s.Dur())*msPerNS, 1)
			break
		}
	}

	// Pick quality and cache work since the ResetMetrics at window start.
	var aggPick, heapOps float64
	var aggN int
	var azcsSeq, azcsRand uint64
	for _, gm := range p.m1.groups {
		if gm.PickedScoreFraction > 0 {
			aggPick += gm.PickedScoreFraction
			aggN++
		}
		heapOps += float64(gm.CacheOps)
		azcsSeq += gm.AZCSSequential
		azcsRand += gm.AZCSRandom
	}
	m.set("wafl.picked_free_frac_agg", stats.Ratio(aggPick, float64(aggN)), 0)
	var volPick, hbpsOps, scanned, allocated, replenishes float64
	var volN int
	for _, vm := range p.m1.vols {
		if vm.PickedScoreFraction > 0 {
			volPick += vm.PickedScoreFraction
			volN++
		}
		hbpsOps += float64(vm.CacheOps)
		scanned += float64(vm.ScannedBlocks)
		allocated += float64(vm.AllocatedBlocks)
		replenishes += float64(vm.Replenishes)
	}
	m.set("wafl.picked_free_frac_vol", stats.Ratio(volPick, float64(volN)), 0)
	m.set("wafl.scan_blocks_per_alloc", stats.Ratio(scanned, allocated), 0)
	m.set("wafl.cache_cpu_frac", stats.Ratio(float64(c.CacheCPUTime), float64(c.CPUTime)), 0)

	m.set("bitmap.pages_dirtied_per_kop", float64(c.MetafilePages)/kops, 0)
	// Mounts: the work counts of each kind of remount and the first-CP gate
	// they price to. These depend on the configuration only, so they repeat
	// across seeds.
	var pages, topaaReads []float64
	var gate, mountMS [2][]float64
	for i := range d.mounts {
		for _, s := range d.mounts[i] {
			gate[i] = append(gate[i], modeledMountMS(s.st))
			mountMS[i] = append(mountMS[i], s.ns*msPerNS)
			if i == 0 {
				pages = append(pages, float64(s.st.BitmapPagesRead))
			} else {
				topaaReads = append(topaaReads, float64(s.st.TopAABlockReads))
			}
		}
	}
	m.set("bitmap.page_reads_per_mount", median(pages), len(pages))
	m.set("topaa.block_reads_per_mount", median(topaaReads), len(topaaReads))
	m.set("wafl.remount_walk_ms_p50", median(mountMS[0]), len(mountMS[0]))
	m.set("wafl.remount_seeded_ms_p50", median(mountMS[1]), len(mountMS[1]))
	m.set("wafl.first_cp_walk_model_ms", median(gate[0]), len(gate[0]))
	m.set("wafl.first_cp_seeded_model_ms", median(gate[1]), len(gate[1]))
	m.set("topaa.blocks_per_cp", stats.Ratio(float64(c.TopAABlocks), float64(c.CPs)), 0)

	m.set("heapcache.ops_per_kop", heapOps/kops, 0)
	m.set("hbps.ops_per_kop", hbpsOps/kops, 0)
	m.set("hbps.replenishes", replenishes, 0)

	full, part := float64(p.m1.full-p.m0.full), float64(p.m1.part-p.m0.part)
	m.set("raid.full_stripe_frac", stats.Ratio(full, full+part), 0)

	host := float64(p.m1.ftl.HostWrites - p.m0.ftl.HostWrites)
	m.set("device.write_amp", stats.Ratio(float64(p.m1.ftl.NANDWrites-p.m0.ftl.NANDWrites), host), 0)
	m.set("device.erases_per_kblock", stats.Ratio(float64(p.m1.ftl.Erases-p.m0.ftl.Erases), host/1e3), 0)
	m.set("device.busy_us_per_op", float64(c.DeviceBusy)/float64(c.Ops)/1e3, 0)
	m.set("device.smr_interventions", float64(p.m1.smr-p.m0.smr), 0)
	m.set("device.azcs_random_frac", stats.Ratio(float64(azcsRand), float64(azcsRand+azcsSeq)), 0)

	// workload: what is left of each segment once the calls into the
	// program are taken out, i.e. generation and the harness loop.
	var self int64
	selfs := selfTimes(d.rec.spans, d.rec.ops)
	for _, s := range d.rec.spans[:p.mark] {
		if s.kind == spanSegment {
			self += selfs[s.ID]
		}
	}
	m.set("workload.self_ns_per_op", float64(self)/float64(d.clientOps), d.clientOps)

	// obs: window deltas of the sinks' own work counters. With Obs nil the
	// counters are registered but never move.
	delta := func(name string) float64 { return float64(p.m1.reg.Counter(name) - p.m0.reg.Counter(name)) }
	m.set("obs.registry_metrics", float64(len(p.m1.reg.Metrics)), 0)
	m.set("obs.tsdb_series", float64(p.m1.series), 0)
	m.set("obs.optrace_traces", delta("optrace.sampled_ops"), 0)
	m.set("obs.slo_evals", delta("slo.evaluations"), 0)
	m.set("obs.control_evals", delta("control.evaluations"), 0)
	m.set("obs.watchdog_checks", delta("watchdog.checks"), 0)
	m.set("obs.watchdog_violations", float64(in.sys.Registry().Snapshot().Counter("watchdog.violations")), 0)
	return m
}
