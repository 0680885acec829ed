package experiments

import (
	"io"
	"math/rand"

	"waflfs/internal/aa"
	"waflfs/internal/faultinject"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// Pipelined crash matrix: the overlap window is the new failure surface the
// pipelined CP opens — writes are allocating into generation n+1 while
// generation n's sealed banks flush. A crash there leaves a committed CP
// whose metafile saves were dropped *and* a sealed generation that never
// reached the devices; recovery must still classify every space as a clean
// load, a reconstruction, or a fallback, with the bitmap metafiles as
// ground truth. One cell per overlap phase × media fault, each running the
// canonical scenario below with the crash pinned to the first overlapped
// boundary.

// pipelineCrashCP is the boundary ordinal the matrix crashes in: the first
// CP of the scenario whose allocation overlaps an in-flight flush.
// Boundaries 1–3 are the fill CP, its drain, and the quiesced re-churn CP;
// boundary 4 is the first to enter overlap_alloc and overlap_flush.
const pipelineCrashCP = 4

// RunPipelineFaultScenario executes one crash-and-recover cycle with
// pipelined CPs under the given plan. The shape mirrors RunFaultScenario
// with the drains the pipeline requires: TierOut and Remount only happen at
// quiesced boundaries, and the post-crash Drain models the in-flight
// generation completing its flush with every metafile save dropped.
func RunPipelineFaultScenario(cfg Config, plan faultinject.Plan, name string) CrashCell {
	cell := CrashCell{Phase: plan.CrashPhase, Fault: plan.Fault.String()}
	tun := cfg.tunablesNamed(name)
	tun.Faults = &plan
	// CPs are driven explicitly so the crash lands in a known boundary.
	tun.CPEveryOps = 1 << 30
	// Delayed virtual frees widen the surface the crash interrupts; the
	// pipeline adds the sealed-generation delayed-free queue on top.
	tun.DelayedVirtFrees = true
	tun.Pipeline = true

	per := cfg.scaled(1<<13, 1<<10)
	// Small AAs keep the per-group AA count meaningful at tiny test scales.
	spec := wafl.GroupSpec{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: per,
		Media: aa.MediaHDD, StripesPerAA: 64}
	volBlocks := uint64(4) * aa.RAIDAgnosticBlocks
	s := wafl.NewSystem([]wafl.GroupSpec{spec, spec},
		[]wafl.VolSpec{{Name: "v0", Blocks: volBlocks}, {Name: "v1", Blocks: volBlocks}},
		tun, plan.Seed)
	// An object pool brings the pool's sealed flush banks into every
	// committed generation.
	s.Agg.AddObjectPool(wafl.PoolSpec{Blocks: 2 * aa.RAIDAgnosticBlocks})
	rng := rand.New(rand.NewSource(plan.Seed))
	lunBlocks := uint64(float64(2*3*per) * 0.3)
	luns := []*wafl.LUN{
		s.Agg.Vols()[0].CreateLUN("l0", lunBlocks),
		s.Agg.Vols()[1].CreateLUN("l1", lunBlocks),
	}
	for _, l := range luns {
		workload.SequentialFill(s, l, 8)
	}
	s.CP()    // boundary 1: quiesced alloc, seals generation 1
	s.Drain() // boundary 2: flushes generation 1 — quiesced for TierOut
	// Tier a cold range out so the pool's AA cache has real content.
	s.TierOut(luns[0], func(lba uint64) bool { return lba < lunBlocks/4 })

	// Churn so the crash-boundary flush re-scores every space: a metafile
	// whose save the crash drops is then genuinely stale.
	workload.RandomOverwrite(s, luns, rng, 512, 1)
	s.CP() // boundary 3: quiesced alloc, seals generation 2 (pool included)
	workload.RandomOverwrite(s, luns, rng, 512, 1)
	s.CP() // boundary 4: the overlap window — the plan's crash fires here
	cell.Crashed = s.Agg.Injector().Crashed()
	// The in-flight generation completes its flush into the dirty failover:
	// every data write lands, every metafile save is dropped.
	s.Drain() // boundary 5

	// The dirty failover's media fault lands on the surviving metafiles.
	if dmg, err := s.Agg.ApplyPlannedDamage(); err == nil && dmg.Kind != faultinject.FaultNone {
		cell.Damage = dmg.String()
	}

	ms := s.Agg.Remount(true)
	cell.Spaces = len(s.Agg.Groups()) + len(s.Agg.Vols()) + 1 // +1: the pool
	cell.Reconstructed = ms.Reconstructed
	cell.Fallbacks = ms.Fallbacks
	cell.Stale = ms.StaleFallbacks
	cell.Torn = ms.TornFallbacks
	cell.Damaged = ms.DamageFallbacks
	cell.Missing = ms.MissingFallbacks
	cell.CleanLoads = cell.Spaces - ms.Fallbacks - ms.Reconstructed

	note := func(rep wafl.ScrubReport) {
		for _, d := range rep.Divergent() {
			cell.Divergent++
			if cell.FirstDivergence == "" {
				cell.FirstDivergence = d.Space + ": " + d.Divergence
			}
		}
	}
	note(s.Agg.Scrub())

	// Recovery must leave a writable, still-pipelined system: finish the
	// background fill, churn, a clean generation end to end (seal + drain),
	// and a second scrub over the post-recovery state.
	s.Agg.CompleteBackgroundFill()
	workload.RandomOverwrite(s, luns, rng, 256, 1)
	s.CP()
	s.Drain()
	note(s.Agg.Scrub())
	return cell
}

// RunPipelineCrashMatrix sweeps both overlap phases × every fault kind over
// pipelined systems.
func RunPipelineCrashMatrix(cfg Config, w io.Writer) *CrashMatrixResult {
	return runCrashMatrix(cfg, w, "pipelinecrash", "crash.pipeline",
		"Pipelined crash matrix: mount outcomes after a crash in the overlap window × media fault (Nc clean, Nr reconstructed, Nf fallback)",
		faultinject.OverlapPhases(), pipelineCrashCP, RunPipelineFaultScenario)
}
