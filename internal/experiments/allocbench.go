package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// The allocator pick-path microbenchmark: the same aged workload runs twice —
// once on the classic shared pick path (AllocShards=1) and once striped
// (AllocShards=8) — and the modeled pick wall-clock is compared at 1, 8,
// and 32 workers. Contention is modeled, not measured: every pick charges
// CPUPerCacheOp to its shard's busy vector, AllocPickWall schedules the
// vectors over W workers (parallel.Makespan), and synchronous stalls
// serialize on top. The classic path charges all picks to one vector per
// space, so it gains nothing from extra workers — the striped win at W=8 is
// exactly the contention the per-shard queues remove, while the refill
// pipeline keeps the staging cost off the pick path.

// AllocBenchResult is one arm's measurement-phase profile.
type AllocBenchResult struct {
	// Shards is the stripe width of this arm (1 = shared).
	Shards int
	// Picks counts AA picks across every space in the measurement phase.
	Picks uint64
	// LocalPicks is the shard-local subset; Stalls the synchronous refills;
	// Staged the entries moved by the pipelined refill stage.
	LocalPicks, Stalls, Staged uint64
	// Wall[w] is the modeled pick wall-clock at w workers.
	Wall map[int]time.Duration
}

// PicksPerSec returns the modeled pick throughput at w workers.
func (r AllocBenchResult) PicksPerSec(w int) float64 {
	d := r.Wall[w]
	if d <= 0 {
		return 0
	}
	return float64(r.Picks) / d.Seconds()
}

// AllocBench is the two-arm comparison.
type AllocBench struct {
	Shared, Striped AllocBenchResult
}

// Gate is the experiment's acceptance condition: the striped arm's modeled
// pick wall-clock at 8 workers must beat the shared arm's, or the sharded
// hot path has stopped paying for itself.
func (b AllocBench) Gate() error {
	if b.Striped.Wall[8] >= b.Shared.Wall[8] {
		return fmt.Errorf("allocbench: striped pick path not faster at 8 workers (striped %v >= shared %v)",
			b.Striped.Wall[8], b.Shared.Wall[8])
	}
	return nil
}

// allocBenchWidths are the worker widths the artifact reports.
var allocBenchWidths = []int{1, 8, 32}

// RunAllocBench ages one system per arm under an identical seeded workload
// (sequential fill, churn, then a measured overwrite burst) and profiles the
// measurement phase's pick traffic.
func RunAllocBench(cfg Config, w io.Writer) AllocBench {
	run := func(name string, shards int) AllocBenchResult {
		tun := cfg.tunablesNamed(name)
		tun.AllocShards = shards
		tun.AllocBatch = 4
		per := cfg.scaled(1<<16, 1<<13)
		// 16-stripe AAs keep the AA count far above shards × batch, so the
		// steady state is shard-local picks, not rebalances.
		spec := wafl.GroupSpec{DataDevices: 4, ParityDevices: 1, BlocksPerDevice: per,
			Media: aa.MediaHDD, StripesPerAA: 16}
		aggBlocks := 2 * 4 * per
		lunBlocks := uint64(float64(aggBlocks) * 0.50)
		s := wafl.NewSystem([]wafl.GroupSpec{spec, spec},
			[]wafl.VolSpec{{Name: "v0", Blocks: lunBlocks * 2}}, tun, cfg.Seed)
		lun := s.Agg.Vols()[0].CreateLUN("l0", lunBlocks)
		rng := rand.New(rand.NewSource(cfg.Seed))
		workload.SequentialFill(s, lun, 1)
		s.CP()
		workload.Age(s, []*wafl.LUN{lun}, rng, 0.5)

		// Measurement phase: counters (including the per-shard busy
		// vectors) restart at zero, then a uniform overwrite burst drives
		// steady-state picks with frees landing in the ledgers.
		s.ResetMetrics()
		workload.RandomOverwrite(s, []*wafl.LUN{lun}, rng, int(lunBlocks/2), 1)
		s.CP()

		res := AllocBenchResult{Shards: shards, Wall: make(map[int]time.Duration)}
		for _, p := range s.Agg.AllocProfiles() {
			res.Picks += p.Picks
			res.LocalPicks += p.LocalPicks
			res.Stalls += p.Stalls
			res.Staged += p.Staged
		}
		for _, width := range allocBenchWidths {
			res.Wall[width] = s.Agg.AllocPickWall(width)
		}
		return res
	}

	b := AllocBench{
		Shared:  run("alloc_shared", 1),
		Striped: run("alloc_striped", 8),
	}

	fmt.Fprintln(w, "### alloc — striped pick-path microbenchmark (modeled contention)")
	fmt.Fprintf(w, "  %-10s %10s %10s %8s %8s %12s %12s %12s\n",
		"arm", "picks", "local", "stalls", "staged", "wall_w1", "wall_w8", "wall_w32")
	for _, a := range []struct {
		name string
		r    AllocBenchResult
	}{{"shared", b.Shared}, {"striped", b.Striped}} {
		fmt.Fprintf(w, "  %-10s %10d %10d %8d %8d %12v %12v %12v\n",
			a.name, a.r.Picks, a.r.LocalPicks, a.r.Stalls, a.r.Staged,
			a.r.Wall[1], a.r.Wall[8], a.r.Wall[32])
	}
	if w8 := b.Striped.Wall[8]; w8 > 0 {
		fmt.Fprintf(w, "  striped speedup at 8 workers: %.2fx\n\n",
			float64(b.Shared.Wall[8])/float64(w8))
	}
	return b
}
