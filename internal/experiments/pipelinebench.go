package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/wafl"
)

// Pipelined-checkpoint overlap benchmark: the same sustained-write workload
// runs twice — once stop-the-world (Pipeline=false) and once pipelined —
// and the modeled sustained-write wall is compared. The classic schedule
// pays alloc + flush serially at every boundary; the pipelined schedule
// allocates generation n+1 while generation n flushes, so each boundary
// costs max(alloc, flush). The gain is Σ(alloc+flush) / Σmax(alloc,flush),
// bounded by 2× and largest when the two sides stay balanced; the gate
// pins a 1.3× floor at 8 workers. Both arms must converge to an identical
// logical state — pipelining reorders commits, never results.

// PipelineBench is the two-arm comparison.
type PipelineBench struct {
	// Generations counts the pipelined arm's committed generations.
	Generations uint64
	// AllocWall / FlushWall are the per-side modeled totals across all
	// generations; SerialWall is their sum (the stop-the-world schedule)
	// and PipelinedWall the Σmax overlap schedule.
	AllocWall, FlushWall      time.Duration
	PipelinedWall, SerialWall time.Duration
	// OverlapGain is SerialWall / PipelinedWall.
	OverlapGain float64
	// Final-state fingerprints of both arms: aggregate blocks used and
	// cumulative blocks written must match exactly.
	UsedClassic, UsedPipelined       uint64
	WrittenClassic, WrittenPipelined uint64
}

// Identical reports whether both arms converged to the same logical state.
func (b PipelineBench) Identical() bool {
	return b.UsedClassic == b.UsedPipelined && b.WrittenClassic == b.WrittenPipelined
}

// Gate is the experiment's acceptance condition: pipelining must keep paying
// for itself (the 1.3x floor at 8 workers) and must reorder commits, never
// results.
func (b PipelineBench) Gate() error {
	if b.OverlapGain < 1.3 {
		return fmt.Errorf("pipelinebench: overlap gain %.3fx below the 1.3x floor at 8 workers (serial %v, pipelined %v)",
			b.OverlapGain, b.SerialWall, b.PipelinedWall)
	}
	if !b.Identical() {
		return fmt.Errorf("pipelinebench: arms diverged (used %d vs %d, written %d vs %d) — pipelining must not change the final state",
			b.UsedPipelined, b.UsedClassic, b.WrittenPipelined, b.WrittenClassic)
	}
	return nil
}

// Rows are the overlap schedule's modeled totals and its gain.
func (b PipelineBench) Rows() (ms benchfmt.Metrics) {
	ms.Add("cp.pipeline.overlap_gain", b.OverlapGain, "x", 0.15)
	ms.Add("cp.pipeline.generations", float64(b.Generations), "count", 0.001)
	ms.Add("cp.pipeline.alloc_wall_ns", float64(b.AllocWall), "ns", 0.15)
	ms.Add("cp.pipeline.flush_wall_ns", float64(b.FlushWall), "ns", 0.15)
	ms.Add("cp.pipeline.pipelined_wall_ns", float64(b.PipelinedWall), "ns", 0.15)
	ms.Add("cp.pipeline.serial_wall_ns", float64(b.SerialWall), "ns", 0.15)
	return ms
}

// pipelineBenchRounds is the number of write bursts (= pipelined
// generations): enough for the steady overlapped state to dominate the
// un-overlapped first seal and final drain.
const pipelineBenchRounds = 12

// RunPipelineBench ages one system per arm under an identical seeded
// random-write workload with explicitly driven CPs and profiles the
// pipelined arm's generation schedule.
func RunPipelineBench(cfg Config, w io.Writer) PipelineBench {
	run := func(name string, pipeline bool) *wafl.System {
		tun := cfg.tunablesNamed(name)
		tun.Pipeline = pipeline
		tun.DelayedVirtFrees = true
		// The overlap schedule is modeled at a pinned 8-way width (like the
		// micro CP-flush makespan) so the gain is comparable across runs
		// regardless of cfg.Workers.
		tun.Workers = 8
		// CPs are driven explicitly: one generation per round.
		tun.CPEveryOps = 1 << 30
		per := cfg.scaled(1<<16, 1<<14)
		spec := wafl.GroupSpec{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: per,
			Media: aa.MediaHDD, StripesPerAA: 256}
		// Several volumes keep the alloc side's makespan meaningful at 8
		// workers: per-volume alloc work spreads, like the flush fan-out.
		vols := make([]wafl.VolSpec, 4)
		for i := range vols {
			vols[i] = wafl.VolSpec{Name: fmt.Sprintf("v%d", i), Blocks: 8 * aa.RAIDAgnosticBlocks}
		}
		s := wafl.NewSystem([]wafl.GroupSpec{spec, spec}, vols, tun, cfg.Seed)
		lunBlocks := cfg.scaled(40000, 15000)
		luns := make([]*wafl.LUN, len(vols))
		for i, v := range s.Agg.Vols() {
			luns[i] = v.CreateLUN("l", lunBlocks)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		writes := int(cfg.scaled(4000, 1500))
		for round := 0; round < pipelineBenchRounds; round++ {
			for i := 0; i < writes; i++ {
				s.Write(luns[rng.Intn(len(luns))], uint64(rng.Intn(int(lunBlocks))), 1)
			}
			s.CP()
		}
		s.Drain() // no-op on the classic arm
		return s
	}

	classic := run("pipe.stw", false)
	piped := run("pipe.pipelined", true)
	ps := piped.PipelineStats()
	b := PipelineBench{
		Generations:      ps.Generations,
		AllocWall:        ps.AllocWall,
		FlushWall:        ps.FlushWall,
		PipelinedWall:    ps.PipelinedWall,
		SerialWall:       ps.SerialWall,
		OverlapGain:      ps.OverlapGain(),
		UsedClassic:      classic.Agg.Bitmap().Used(),
		UsedPipelined:    piped.Agg.Bitmap().Used(),
		WrittenClassic:   classic.Counters().BlocksWritten,
		WrittenPipelined: piped.Counters().BlocksWritten,
	}

	fmt.Fprintln(w, "### pipeline — pipelined-CP overlap benchmark (modeled, 8 workers)")
	fmt.Fprintf(w, "  generations: %d   alloc wall: %v   flush wall: %v\n",
		b.Generations, b.AllocWall, b.FlushWall)
	fmt.Fprintf(w, "  sustained-write wall: stop-the-world %v, pipelined %v — overlap gain %.2fx\n",
		b.SerialWall, b.PipelinedWall, b.OverlapGain)
	fmt.Fprintf(w, "  final state: classic used %d / written %d, pipelined used %d / written %d\n\n",
		b.UsedClassic, b.WrittenClassic, b.UsedPipelined, b.WrittenPipelined)
	return b
}
