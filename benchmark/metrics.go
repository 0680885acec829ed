package main

import "sort"

// Clock names which of the system's two clocks a metric is read from.
type Clock string

const (
	// Host metrics are what the Go code costs on the machine running the
	// benchmark: seconds, allocations, bytes.
	Host Clock = "host"
	// Modeled metrics are what the simulated storage server would take;
	// they repeat exactly for a given seed and window size.
	Modeled Clock = "modeled"
)

// MetricDef is the static description of one metric: everything the
// glossary prints beside a value.
type MetricDef struct {
	Name   string
	Unit   string
	Clock  Clock
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics carry no bound.
	Bound float64
	// Layer is the package the metric measures ("" for end-to-end).
	Layer string
	// Moves names the end-to-end metric and workload a per-layer metric is
	// predicted to move (the layer -> end-to-end table of the README).
	Moves string
	Help  string
}

// Bounds: the share of the baseline's median by which a metric may worsen
// before it counts as a regression. Each leaves about three times the
// spread of ten runs with ten seeds on the 2-CPU reference host (README,
// "Noise"). Host-clock times sit at the contract's maximum because that
// host has phases, longer than a run, in which everything is 30% slower;
// modeled metrics are exact for one seed, and their bounds cover the
// seed-to-seed spread, which rare, costly events (SMR interventions, FTL
// merges) dominate.
const (
	boundHostTime = 0.25
	boundAllocs   = 0.02
	boundHeap     = 0.05
	boundCounts   = 0.02 // modeled CPU and metafile pages per op
	boundQueueing = 0.10 // MVA throughput and latency
)

// EndToEnd lists the metrics a user of the simulator sees, measured with
// the benchmark's tracing off. Every workload reports every one of them.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Clock: Host, Better: "lower", Bound: boundHostTime,
		Help: "build + age one system; median of the run's set-ups"},
	{Name: "host_kops_per_s", Unit: "kops/s", Clock: Host, Better: "higher", Bound: boundHostTime,
		Help: "client ops per host second of a segment, every call included; quiet decile (p90) over segments"},
	{Name: "cp_host_ms_p50", Unit: "ms", Clock: Host, Better: "lower", Bound: boundHostTime,
		Help: "host time of one System.CP or Drain call: median within a segment, quiet decile (p10) over segments"},
	{Name: "host_allocs_per_op", Unit: "allocs/op", Clock: Host, Better: "lower", Bound: boundAllocs,
		Help: "runtime.MemStats.Mallocs delta over the window per client op"},
	{Name: "live_heap_mb", Unit: "MB", Clock: Host, Better: "lower", Bound: boundHeap,
		Help: "HeapAlloc after a forced GC at window end"},
	{Name: "modeled_peak_kops", Unit: "kops/s", Clock: Modeled, Better: "higher", Bound: boundQueueing,
		Help: "MVA throughput at 512 clients over the window's measured demands"},
	{Name: "modeled_lat_ms_64c", Unit: "model_ms", Clock: Modeled, Better: "lower", Bound: boundQueueing,
		Help: "MVA response time at 64 clients"},
	{Name: "modeled_cpu_us_per_op", Unit: "model_us", Clock: Modeled, Better: "lower", Bound: boundCounts,
		Help: "Counters.CPUTime per client op over the window"},
	{Name: "modeled_meta_pages_per_kop", Unit: "pages/kop", Clock: Modeled, Better: "lower", Bound: boundCounts,
		Help: "bitmap-metafile pages plus TopAA blocks written per 1000 ops"},
}

// PerLayer lists the single-layer metrics of the traced run. A metric that
// does not apply to a workload (reads on a write-only workload, SMR chains
// on SSD) reports 0 with 0 samples.
var PerLayer = []MetricDef{
	// wafl: spans around the benchmark's calls into System/Aggregate.
	{Name: "wafl.write_ns_p50", Unit: "ns", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_kops_per_s on ssd_overwrite, snap_pipeline", Help: "System.Write span, median"},
	{Name: "wafl.write_ns_p99", Unit: "ns", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_kops_per_s on ssd_overwrite, snap_pipeline", Help: "System.Write span, tail"},
	{Name: "wafl.read_ns_p50", Unit: "ns", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_kops_per_s on hdd_oltp only", Help: "System.Read span, median"},
	{Name: "wafl.read_ns_p99", Unit: "ns", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_kops_per_s on hdd_oltp only", Help: "System.Read span, tail"},
	{Name: "wafl.cp_ms_p99", Unit: "ms", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "cp_host_ms_p50 on ssd_overwrite", Help: "System.CP span, tail"},
	{Name: "wafl.cp_allocs", Unit: "allocs/cp", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_allocs_per_op on ssd_overwrite", Help: "Mallocs delta around a CP call, mean"},
	{Name: "wafl.cp_bytes", Unit: "B/cp", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_allocs_per_op on ssd_overwrite", Help: "TotalAlloc delta around a CP call, mean"},
	{Name: "wafl.bytes_per_op", Unit: "B/op", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_allocs_per_op, live_heap_mb", Help: "TotalAlloc delta over the window per client op"},
	{Name: "wafl.blocks_per_cp", Unit: "blocks/cp", Clock: Modeled, Better: "higher", Layer: "wafl",
		Moves: "cp_host_ms_p50", Help: "BlocksWritten per CP over the window"},
	{Name: "wafl.cp_count", Unit: "count", Clock: Modeled, Better: "lower", Layer: "wafl",
		Moves: "cp_host_ms_p50", Help: "CPs committed in the window"},
	{Name: "wafl.snap_create_ms_p50", Unit: "ms", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_kops_per_s on snap_pipeline", Help: "CreateSnapshot span, median"},
	{Name: "wafl.snap_delete_ms_p50", Unit: "ms", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_kops_per_s on snap_pipeline", Help: "DeleteSnapshot span, median"},
	{Name: "wafl.overlap_gain", Unit: "x", Clock: Modeled, Better: "higher", Layer: "wafl",
		Moves: "modeled_peak_kops on snap_pipeline", Help: "serial wall / pipelined wall over the window"},
	{Name: "wafl.alloc_stalls", Unit: "count", Clock: Modeled, Better: "lower", Layer: "wafl",
		Moves: "modeled_peak_kops on snap_pipeline", Help: "synchronous shard-queue refills in the window"},
	{Name: "wafl.delayed_pending_end", Unit: "blocks", Clock: Modeled, Better: "lower", Layer: "wafl",
		Moves: "modeled_peak_kops on snap_pipeline", Help: "delayed frees still queued at window end"},
	{Name: "wafl.scrub_ms", Unit: "ms", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "none (post-run check)", Help: "Aggregate.Scrub span after the window"},
	{Name: "wafl.picked_free_frac_agg", Unit: "frac", Clock: Modeled, Better: "higher", Layer: "wafl",
		Moves: "modeled_peak_kops on ssd_overwrite", Help: "mean free fraction of picked physical AAs"},
	{Name: "wafl.picked_free_frac_vol", Unit: "frac", Clock: Modeled, Better: "higher", Layer: "wafl",
		Moves: "modeled_cpu_us_per_op on ssd_overwrite", Help: "mean free fraction of picked virtual AAs"},
	{Name: "wafl.scan_blocks_per_alloc", Unit: "blocks", Clock: Modeled, Better: "lower", Layer: "wafl",
		Moves: "modeled_cpu_us_per_op on ssd_overwrite", Help: "virtual cursor positions swept per block allocated"},
	{Name: "wafl.cache_cpu_frac", Unit: "frac", Clock: Modeled, Better: "lower", Layer: "wafl",
		Moves: "modeled_cpu_us_per_op", Help: "cache-maintenance share of modeled CPU"},
	{Name: "wafl.remount_seeded_ms_p50", Unit: "ms", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_kops_per_s on mount_cycle", Help: "Remount(true) span, the TopAA-seeded mount; median"},
	{Name: "wafl.remount_walk_ms_p50", Unit: "ms", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "host_kops_per_s on mount_cycle", Help: "Remount(false) span, the bitmap-walk mount; median"},
	{Name: "wafl.first_cp_seeded_model_ms", Unit: "model_ms", Clock: Modeled, Better: "lower", Layer: "wafl",
		Moves: "the paper's first-CP-after-mount claim, on mount_cycle", Help: "first-CP gate after a seeded mount, MountStats priced as Fig. 10 does; median"},
	{Name: "wafl.first_cp_walk_model_ms", Unit: "model_ms", Clock: Modeled, Better: "lower", Layer: "wafl",
		Moves: "the paper's first-CP-after-mount claim, on mount_cycle", Help: "first-CP gate after a bitmap-walk mount; median"},
	{Name: "wafl.cp_self_frac", Unit: "frac", Clock: Host, Better: "lower", Layer: "wafl",
		Moves: "cp_host_ms_p50", Help: "ESTIMATE: share of CP span left after op counts x replay ns/call of the lower layers"},

	{Name: "bitmap.nextfree_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "bitmap",
		Moves: "cp_host_ms_p50 on ssd_overwrite", Help: "replay: Bitmap.NextFree over the aged volume bitmap"},
	{Name: "bitmap.countfree_aa_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "bitmap",
		Moves: "wafl.remount_walk_ms_p50 and host_kops_per_s on mount_cycle", Help: "replay: aa.Score (CountFree over one AA's segments)"},
	{Name: "bitmap.setclear_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "bitmap",
		Moves: "cp_host_ms_p50 on ssd_overwrite", Help: "replay: Bitmap.Set / Clear, per call"},
	{Name: "bitmap.freeruns_aa_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "bitmap",
		Moves: "cp_host_ms_p50 on ssd_overwrite_obs (fragscan)", Help: "replay: FreeRuns over one AA"},
	{Name: "bitmap.pages_dirtied_per_kop", Unit: "pages/kop", Clock: Modeled, Better: "lower", Layer: "bitmap",
		Moves: "modeled_meta_pages_per_kop", Help: "bitmap-metafile pages written back per 1000 ops"},
	{Name: "bitmap.page_reads_per_mount", Unit: "pages", Clock: Modeled, Better: "lower", Layer: "bitmap",
		Moves: "wafl.first_cp_walk_model_ms", Help: "bitmap pages read by one walk mount, median"},

	{Name: "aa.scoreall_ms", Unit: "ms", Clock: Host, Better: "lower", Layer: "aa",
		Moves: "wafl.remount_walk_ms_p50 and host_kops_per_s on mount_cycle", Help: "replay: aa.ScoreAll over group 0"},
	{Name: "aa.scoreall_allocs", Unit: "allocs", Clock: Host, Better: "lower", Layer: "aa",
		Moves: "wafl.remount_walk_ms_p50 and host_kops_per_s on mount_cycle", Help: "replay: allocations of one aa.ScoreAll"},

	{Name: "heapcache.update_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "heapcache",
		Moves: "cp_host_ms_p50 on ssd_overwrite (predicted negligible)", Help: "replay: Cache.Update at the aged score distribution"},
	{Name: "heapcache.popreinsert_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "heapcache",
		Moves: "cp_host_ms_p50 on ssd_overwrite (predicted negligible)", Help: "replay: PopBest + Insert pair"},
	{Name: "heapcache.fromscores_ms", Unit: "ms", Clock: Host, Better: "lower", Layer: "heapcache",
		Moves: "wafl.remount_walk_ms_p50 and host_kops_per_s on mount_cycle", Help: "replay: NewFromScores over group 0"},
	{Name: "heapcache.ops_per_kop", Unit: "ops/kop", Clock: Modeled, Better: "lower", Layer: "heapcache",
		Moves: "modeled_cpu_us_per_op", Help: "group-cache maintenance ops per 1000 client ops"},
	{Name: "heapcache.bytes_per_aa", Unit: "B", Clock: Host, Better: "lower", Layer: "heapcache",
		Moves: "live_heap_mb", Help: "replay: bytes allocated by NewFromScores per AA"},

	{Name: "hbps.update_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "hbps",
		Moves: "cp_host_ms_p50 on ssd_overwrite (predicted negligible)", Help: "replay: HBPS.Update"},
	{Name: "hbps.pop_track_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "hbps",
		Moves: "cp_host_ms_p50 on ssd_overwrite (predicted negligible)", Help: "replay: PopBest + Track pair"},
	{Name: "hbps.replenish_us", Unit: "us", Clock: Host, Better: "lower", Layer: "hbps",
		Moves: "wafl.remount_walk_ms_p50 and host_kops_per_s on mount_cycle", Help: "replay: Replenish from the aged scores"},
	{Name: "hbps.marshal_us", Unit: "us", Clock: Host, Better: "lower", Layer: "hbps",
		Moves: "cp_host_ms_p50", Help: "replay: Marshal"},
	{Name: "hbps.load_us", Unit: "us", Clock: Host, Better: "lower", Layer: "hbps",
		Moves: "wafl.remount_seeded_ms_p50 and host_kops_per_s on mount_cycle", Help: "replay: Load"},
	{Name: "hbps.ops_per_kop", Unit: "ops/kop", Clock: Modeled, Better: "lower", Layer: "hbps",
		Moves: "modeled_cpu_us_per_op", Help: "volume-cache maintenance ops per 1000 client ops"},
	{Name: "hbps.replenishes", Unit: "count", Clock: Modeled, Better: "lower", Layer: "hbps",
		Moves: "modeled_cpu_us_per_op on mount_cycle", Help: "HBPS replenish walks in the window"},
	{Name: "hbps.bytes", Unit: "B", Clock: Modeled, Better: "lower", Layer: "hbps",
		Moves: "live_heap_mb", Help: "marshaled size; the paper's two-page bound is 8192"},

	{Name: "topaa.marshal_us", Unit: "us", Clock: Host, Better: "lower", Layer: "topaa",
		Moves: "cp_host_ms_p50", Help: "replay: TopK + MarshalRAIDAware"},
	{Name: "topaa.load_us", Unit: "us", Clock: Host, Better: "lower", Layer: "topaa",
		Moves: "wafl.remount_seeded_ms_p50 and host_kops_per_s on mount_cycle", Help: "replay: Store.LoadRAIDAware"},
	{Name: "topaa.save_us", Unit: "us", Clock: Host, Better: "lower", Layer: "topaa",
		Moves: "cp_host_ms_p50", Help: "replay: Store.SaveRAIDAware"},
	{Name: "topaa.blocks_per_cp", Unit: "blocks/cp", Clock: Modeled, Better: "lower", Layer: "topaa",
		Moves: "modeled_meta_pages_per_kop", Help: "TopAA blocks persisted per CP"},
	{Name: "topaa.block_reads_per_mount", Unit: "blocks", Clock: Modeled, Better: "lower", Layer: "topaa",
		Moves: "wafl.first_cp_seeded_model_ms on mount_cycle", Help: "TopAA blocks read by one seeded mount, median"},

	{Name: "raid.tetris_ns_per_block", Unit: "ns", Clock: Host, Better: "lower", Layer: "raid",
		Moves: "cp_host_ms_p50 on ssd_overwrite", Help: "replay: BuildTetrises over the best AA's free blocks, per block"},
	{Name: "raid.tetris_allocs_per_call", Unit: "allocs", Clock: Host, Better: "lower", Layer: "raid",
		Moves: "host_allocs_per_op on ssd_overwrite", Help: "replay: allocations of one BuildTetrises"},
	{Name: "raid.full_stripe_frac", Unit: "frac", Clock: Modeled, Better: "higher", Layer: "raid",
		Moves: "modeled_peak_kops on hdd_oltp", Help: "touched stripes written full, over the window"},

	{Name: "device.hybrid_write_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "device",
		Moves: "cp_host_ms_p50 on ssd_overwrite", Help: "replay: HybridFTL.Write per page (SSD only)"},
	{Name: "device.ssd_chain_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "device",
		Moves: "cp_host_ms_p50 on ssd_overwrite", Help: "replay: SSD.WriteChain per chain (SSD only)"},
	{Name: "device.hdd_chain_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "device",
		Moves: "cp_host_ms_p50 on hdd_oltp, mount_cycle", Help: "replay: HDD.WriteChain per chain (HDD only)"},
	{Name: "device.smr_chain_ns", Unit: "ns", Clock: Host, Better: "lower", Layer: "device",
		Moves: "cp_host_ms_p50 on snap_pipeline", Help: "replay: SMR.WriteChain per chain (SMR only)"},
	{Name: "device.write_amp", Unit: "x", Clock: Modeled, Better: "lower", Layer: "device",
		Moves: "modeled_peak_kops, modeled_lat_ms_64c on ssd_overwrite", Help: "NAND writes / host writes over the window"},
	{Name: "device.erases_per_kblock", Unit: "erases", Clock: Modeled, Better: "lower", Layer: "device",
		Moves: "modeled_peak_kops on ssd_overwrite", Help: "erase-block erases per 1000 host blocks"},
	{Name: "device.busy_us_per_op", Unit: "model_us", Clock: Modeled, Better: "lower", Layer: "device",
		Moves: "modeled_peak_kops, modeled_lat_ms_64c", Help: "Counters.DeviceBusy per client op"},
	{Name: "device.smr_interventions", Unit: "count", Clock: Modeled, Better: "lower", Layer: "device",
		Moves: "modeled_peak_kops on snap_pipeline", Help: "SMR drive interventions in the window"},
	{Name: "device.azcs_random_frac", Unit: "frac", Clock: Modeled, Better: "lower", Layer: "device",
		Moves: "modeled_peak_kops on snap_pipeline", Help: "AZCS checksum writes issued out of band"},

	{Name: "workload.self_ns_per_op", Unit: "ns", Clock: Host, Better: "lower", Layer: "workload",
		Moves: "host_kops_per_s everywhere", Help: "segment span minus its wafl.* child spans, per client op"},

	{Name: "sim.sweep_us", Unit: "us", Clock: Host, Better: "lower", Layer: "sim",
		Moves: "none (reporting path)", Help: "replay: sim.Sweep over the measured centres"},
	{Name: "sim.bottleneck_util", Unit: "frac", Clock: Modeled, Better: "lower", Layer: "sim",
		Moves: "modeled_peak_kops", Help: "utilization of the busiest centre at 512 clients"},

	{Name: "obs.overhead_ratio", Unit: "x", Clock: Host, Better: "lower", Layer: "obs",
		Moves: "host_kops_per_s on ssd_overwrite_obs", Help: "host_kops_per_s with Obs nil / with every sink armed, same workload and seed"},
	{Name: "obs.snapshot_us", Unit: "us", Clock: Host, Better: "lower", Layer: "obs",
		Moves: "cp_host_ms_p50 on ssd_overwrite_obs", Help: "replay: Registry().Snapshot()"},
	{Name: "obs.registry_metrics", Unit: "count", Clock: Modeled, Better: "lower", Layer: "obs",
		Moves: "cp_host_ms_p50, live_heap_mb on ssd_overwrite_obs", Help: "metrics in one registry snapshot"},
	{Name: "obs.tsdb_series", Unit: "count", Clock: Modeled, Better: "lower", Layer: "obs",
		Moves: "live_heap_mb on ssd_overwrite_obs", Help: "tsdb series at window end (0 with Obs nil)"},
	{Name: "obs.optrace_traces", Unit: "count", Clock: Modeled, Better: "lower", Layer: "obs",
		Moves: "host_kops_per_s on ssd_overwrite_obs", Help: "ops sampled by optrace in the window"},
	{Name: "obs.slo_evals", Unit: "count", Clock: Modeled, Better: "lower", Layer: "obs",
		Moves: "cp_host_ms_p50 on ssd_overwrite_obs", Help: "SLO engine evaluations in the window"},
	{Name: "obs.control_evals", Unit: "count", Clock: Modeled, Better: "lower", Layer: "obs",
		Moves: "cp_host_ms_p50 on ssd_overwrite_obs", Help: "control engine evaluations in the window"},
	{Name: "obs.watchdog_checks", Unit: "count", Clock: Modeled, Better: "lower", Layer: "obs",
		Moves: "cp_host_ms_p50 on ssd_overwrite_obs", Help: "watchdog checks in the window"},
	{Name: "obs.watchdog_violations", Unit: "count", Clock: Modeled, Better: "lower", Layer: "obs",
		Moves: "must be 0", Help: "watchdog violations over the whole run"},

	{Name: "bench.trace_overhead_ratio", Unit: "x", Clock: Host, Better: "lower", Layer: "bench",
		Moves: "none (harness)", Help: "host_kops_per_s untraced / traced, same seed"},
}

// findMetric returns the definition of a metric of either list.
func findMetric(name string) (MetricDef, bool) {
	for _, list := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return MetricDef{}, false
}

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a median or percentile (0 when the
	// metric is a plain count or ratio).
	N int `json:"n,omitempty"`
	// Pct is the percentile actually reported by a tail metric: 99 needs
	// 1000 samples, otherwise the rule falls back to 90 or 50.
	Pct float64 `json:"pct,omitempty"`
}

// Metrics maps metric names to measured values.
type Metrics map[string]Value

// mustMetric returns the definition of a metric the program itself names.
func mustMetric(name string) MetricDef {
	d, ok := findMetric(name)
	if !ok {
		panic("benchmark: undefined metric " + name)
	}
	return d
}

// set records a value under a defined metric name, taking the unit from the
// definition so the glossary and the output cannot disagree.
func (m Metrics) set(name string, v float64, n int) {
	m[name] = Value{Value: v, Unit: mustMetric(name).Unit, N: n}
}

// sortedNames returns the metric names in lexical order.
func (m Metrics) sortedNames() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
