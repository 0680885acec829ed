package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/faultinject"
	"waflfs/internal/parallel"
	"waflfs/internal/stats"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// Crash-recovery matrix: the paper's §3.4 recovery argument is that the
// TopAA metafile is advisory — any damage to it degrades mount performance
// (bitmap walk instead of a seeded load), never correctness, because the
// bitmap metafiles remain the CP-consistent ground truth. The matrix proves
// that across the whole failure surface: one cell per (CP phase to crash in)
// × (media fault to leave behind), each running fill → clean CP → churn →
// crashing CP → planned damage → remount → scrub → post-recovery CP →
// scrub. A cell fails on silent divergence: a rebuilt cache whose scores
// disagree with the bitmap without having been classified as a fallback.

// CrashCell is one (phase, fault) cell's outcome.
type CrashCell struct {
	Phase string
	Fault string
	// Crashed reports whether the second CP hit the crash point (always
	// true: every phase name in the matrix occurs in every CP).
	Crashed bool
	// Damage describes the media fault placed after the crash ("" = none).
	Damage string
	// Spaces is the number of AA-cache spaces remounted (groups + volumes).
	Spaces int
	// Mount outcome tallies across spaces (clean + reconstructed +
	// fallbacks == Spaces).
	CleanLoads    int
	Reconstructed int
	Fallbacks     int
	Stale         int
	Torn          int
	Damaged       int
	Missing       int
	// Divergent counts spaces whose post-recovery scrub disagreed with the
	// bitmap — silent divergence, the one unacceptable outcome. Both the
	// post-remount and post-CP scrubs accumulate here.
	Divergent int
	// FirstDivergence preserves the first scrub complaint for diagnosis.
	FirstDivergence string
}

func (c CrashCell) summary() string {
	if c.Divergent > 0 {
		return fmt.Sprintf("DIVERGENT×%d", c.Divergent)
	}
	s := fmt.Sprintf("%dc", c.CleanLoads)
	if c.Reconstructed > 0 {
		s += fmt.Sprintf(" %dr", c.Reconstructed)
	}
	if c.Fallbacks > 0 {
		s += fmt.Sprintf(" %df", c.Fallbacks)
	}
	return s
}

// CrashMatrixResult is the full phase × fault sweep.
type CrashMatrixResult struct {
	// Name is the sweep's registry name ("crashmatrix", "pipelinecrash").
	Name string
	// Arm prefixes its cells' system names and its rows ("crash",
	// "crash.pipeline").
	Arm    string
	Phases []string
	Faults []string
	Cells  []CrashCell // row-major: phases × faults
}

// Divergent returns the cells with silent divergence (must be empty).
func (r *CrashMatrixResult) Divergent() []CrashCell {
	var out []CrashCell
	for _, c := range r.Cells {
		if c.Divergent > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Gate is the experiment's acceptance condition: no recovered cache may
// silently disagree with the bitmap metafiles.
func (r *CrashMatrixResult) Gate() error {
	if div := r.Divergent(); len(div) > 0 {
		return fmt.Errorf("%s: silent divergence in %d of %d cells", r.Name, len(div), len(r.Cells))
	}
	return nil
}

// Rows are the sweep's outcome counts, exact: a zero-tolerance band makes
// any change to how recovery classifies a cell a regression.
func (r *CrashMatrixResult) Rows() (ms benchfmt.Metrics) {
	t := r.Totals()
	for _, c := range []struct {
		name string
		n    int
	}{
		{"cells", len(r.Cells)}, {"divergent", t.Divergent}, {"clean_loads", t.CleanLoads},
		{"reconstructed", t.Reconstructed}, {"fallbacks", t.Fallbacks}, {"stale_fallbacks", t.Stale},
		{"torn_fallbacks", t.Torn}, {"damage_fallbacks", t.Damaged},
	} {
		ms.Add(r.Arm+"."+c.name, float64(c.n), "count", 0.001)
	}
	return ms
}

// Totals sums the per-cell tallies.
func (r *CrashMatrixResult) Totals() CrashCell {
	var t CrashCell
	for _, c := range r.Cells {
		t.Spaces += c.Spaces
		t.CleanLoads += c.CleanLoads
		t.Reconstructed += c.Reconstructed
		t.Fallbacks += c.Fallbacks
		t.Stale += c.Stale
		t.Torn += c.Torn
		t.Damaged += c.Damaged
		t.Missing += c.Missing
		t.Divergent += c.Divergent
	}
	return t
}

// RunFaultScenario executes one crash-and-recover cycle under the given
// plan and verifies recovery with the mount-time scrub. The same routine
// backs every matrix cell and waflbench's -faults mode.
func RunFaultScenario(cfg Config, plan faultinject.Plan, name string) CrashCell {
	return runFaultScenario(cfg, plan, name, false)
}

// runFaultScenario is the crash-and-recover cycle at either CP depth: fill,
// a clean CP, churn, the crashing CP, planned damage, remount, scrub, then
// more churn, a clean CP and a second scrub. Pipelined, it drains where
// TierOut and Remount need a quiesced system and crashes one boundary later,
// in the first overlap window (pipelineCrashCP); Drain is a no-op at depth 1.
func runFaultScenario(cfg Config, plan faultinject.Plan, name string, pipeline bool) CrashCell {
	cell := CrashCell{Phase: plan.CrashPhase, Fault: plan.Fault.String()}
	tun := cfg.tunablesNamed(name)
	tun.Faults = &plan
	// CPs are driven explicitly so the crash lands in a known boundary.
	tun.CPEveryOps = 1 << 30
	// Delayed virtual frees widen the surface the crash interrupts; the
	// pipeline adds the sealed-generation delayed-free queue on top.
	tun.DelayedVirtFrees = true
	tun.Pipeline = pipeline

	per := cfg.scaled(1<<13, 1<<10)
	// Small AAs keep the per-group AA count meaningful at tiny test scales.
	spec := wafl.GroupSpec{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: per,
		Media: aa.MediaHDD, StripesPerAA: 64}
	volBlocks := uint64(4) * aa.RAIDAgnosticBlocks
	s := wafl.NewSystem([]wafl.GroupSpec{spec, spec},
		[]wafl.VolSpec{{Name: "v0", Blocks: volBlocks}, {Name: "v1", Blocks: volBlocks}},
		tun, plan.Seed)
	// An object pool brings the pool flush/save phase (and, pipelined, its
	// sealed flush banks) into every CP.
	s.Agg.AddObjectPool(wafl.PoolSpec{Blocks: 2 * aa.RAIDAgnosticBlocks})
	rng := rand.New(rand.NewSource(plan.Seed))
	// Thin provisioning: the LUNs are sized off physical capacity (the two
	// groups), not the larger virtual spaces.
	lunBlocks := uint64(float64(2*3*per) * 0.3)
	luns := []*wafl.LUN{
		s.Agg.Vols()[0].CreateLUN("l0", lunBlocks),
		s.Agg.Vols()[1].CreateLUN("l1", lunBlocks),
	}
	for _, l := range luns {
		workload.SequentialFill(s, l, 8)
	}
	s.CP()    // clean; every TopAA metafile lands
	s.Drain() // pipelined: flushes that generation, quiesced for TierOut
	// Tier a cold range out so the pool's AA cache has real content.
	s.TierOut(luns[0], func(lba uint64) bool { return lba < lunBlocks/4 })

	// Churn so the crashing CP re-scores every space: a metafile whose save
	// the crash drops is then genuinely stale, not coincidentally current.
	workload.RandomOverwrite(s, luns, rng, 512, 1)
	s.CP() // depth 1: CP 2, the plan's crash point fires mid-pipeline
	if pipeline {
		workload.RandomOverwrite(s, luns, rng, 512, 1)
		s.CP() // boundary 4: the overlap window, where the crash fires
	}
	cell.Crashed = s.Agg.Injector().Crashed()
	// A generation in flight completes its flush into the dirty failover:
	// every data write lands, every metafile save is dropped.
	s.Drain()

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

	// Recovery must leave a writable system at its depth: finish the
	// background fill the seeded caches defer, then more churn, a clean CP
	// end to end (the injector recovered at remount; the pinned crash CP is
	// behind us), and a second scrub over the post-recovery state.
	s.Agg.CompleteBackgroundFill()
	workload.RandomOverwrite(s, luns, rng, 256, 1)
	s.CP()
	s.Drain()
	note(s.Agg.Scrub())
	return cell
}

// RunCrashMatrix sweeps every CP phase × fault kind, crashing in CP 2.
func RunCrashMatrix(cfg Config, w io.Writer) *CrashMatrixResult {
	return runCrashMatrix(cfg, w, "crashmatrix", "crash",
		"Crash matrix: mount outcomes after a crash at each CP phase × media fault (Nc clean, Nr reconstructed, Nf fallback)",
		faultinject.CPPhases(), 2, RunFaultScenario)
}

// runCrashMatrix sweeps phases × every fault kind through scenario, with the
// crash pinned to boundary crashCP and each cell's system named
// "<arm>.<phase>.<fault>". Cells are independent systems fanned out over
// the work pool; the result is identical at any worker count.
func runCrashMatrix(cfg Config, w io.Writer, name, arm, title string, phases []string, crashCP int,
	scenario func(Config, faultinject.Plan, string) CrashCell) *CrashMatrixResult {
	res := &CrashMatrixResult{Name: name, Arm: arm, Phases: phases}
	kinds := faultinject.Kinds()
	for _, k := range kinds {
		res.Faults = append(res.Faults, k.String())
	}
	res.Cells = parallel.Map(cfg.Workers, len(phases)*len(kinds), func(i int) CrashCell {
		phase, fault := phases[i/len(kinds)], kinds[i%len(kinds)]
		plan := faultinject.Plan{
			Seed:       cfg.Seed + int64(i)*1001,
			CrashPhase: phase,
			CrashCP:    crashCP,
			Fault:      fault,
		}
		return scenario(cfg, plan, fmt.Sprintf("%s.%s.%s", arm, phase, fault))
	})
	printCrashMatrix(w, title, res)
	return res
}

// printCrashMatrix renders a phase × fault sweep: the per-cell outcome
// table, the totals line, and the divergence report (shared by the classic
// and pipelined matrices).
func printCrashMatrix(w io.Writer, title string, res *CrashMatrixResult) {
	tb := stats.Table{
		Title:   title,
		Columns: append([]string{"crash phase"}, res.Faults...),
	}
	for pi, p := range res.Phases {
		row := []interface{}{p}
		for fi := range res.Faults {
			row = append(row, res.Cells[pi*len(res.Faults)+fi].summary())
		}
		tb.AddRow(row...)
	}
	fmt.Fprintln(w, tb.String())

	t := res.Totals()
	fmt.Fprintf(w, "cells: %d  spaces remounted: %d  clean: %d  reconstructed: %d  fallbacks: %d (stale %d, torn %d, damaged %d, missing %d)\n",
		len(res.Cells), t.Spaces, t.CleanLoads, t.Reconstructed, t.Fallbacks, t.Stale, t.Torn, t.Damaged, t.Missing)
	if div := res.Divergent(); len(div) > 0 {
		sort.Slice(div, func(i, j int) bool {
			return div[i].Phase+div[i].Fault < div[j].Phase+div[j].Fault
		})
		fmt.Fprintf(w, "SILENT DIVERGENCE in %d cells:\n", len(div))
		for _, c := range div {
			fmt.Fprintf(w, "  %s × %s: %s\n", c.Phase, c.Fault, c.FirstDivergence)
		}
	} else {
		fmt.Fprintln(w, "silent divergence: none — every cache either loaded clean, reconstructed, or fell back to the bitmap")
	}
	fmt.Fprintln(w)
}
