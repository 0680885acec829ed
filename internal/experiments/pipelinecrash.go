package experiments

import (
	"io"

	"waflfs/internal/faultinject"
)

// Pipelined crash matrix: the overlap window is the new failure surface the
// pipelined CP opens — writes are allocating into generation n+1 while
// generation n's sealed banks flush. A crash there leaves a committed CP
// whose metafile saves were dropped *and* a sealed generation that never
// reached the devices; recovery must still classify every space as a clean
// load, a reconstruction, or a fallback, with the bitmap metafiles as
// ground truth. One cell per overlap phase × media fault, each running the
// crash matrix's scenario pipelined, with the crash pinned to the first
// overlapped boundary.

// pipelineCrashCP is the boundary ordinal the matrix crashes in: the first
// CP of the scenario whose allocation overlaps an in-flight flush.
// Boundaries 1–3 are the fill CP, its drain, and the quiesced re-churn CP;
// boundary 4 is the first to enter overlap_alloc and overlap_flush.
const pipelineCrashCP = 4

// RunPipelineFaultScenario executes one crash-and-recover cycle with
// pipelined CPs under the given plan (waflbench -faults runs it for plans
// naming an overlap phase).
func RunPipelineFaultScenario(cfg Config, plan faultinject.Plan, name string) CrashCell {
	return runFaultScenario(cfg, plan, name, true)
}

// RunPipelineCrashMatrix sweeps both overlap phases × every fault kind over
// pipelined systems.
func RunPipelineCrashMatrix(cfg Config, w io.Writer) *CrashMatrixResult {
	return runCrashMatrix(cfg, w, "pipelinecrash", "crash.pipeline",
		"Pipelined crash matrix: mount outcomes after a crash in the overlap window × media fault (Nc clean, Nr reconstructed, Nf fallback)",
		faultinject.OverlapPhases(), pipelineCrashCP, RunPipelineFaultScenario)
}
