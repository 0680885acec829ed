package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/benchfmt"
	"waflfs/internal/control"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// Adversarial aging + snapshot-storm benchmark: the same hostile workload —
// sustained overwrite churn with a snapshot created and an old one deleted
// every round, so each CP inherits a mass of delayed virtual frees well above
// the per-CP reclaim budget — runs twice. The static arm keeps its hand-set
// DelayedFreeBudgetPerCP for the whole run; the closed-loop arm carries the
// storm policy portfolio, whose backlog_shed clause watches the per-volume
// delayed-free backlog and halves the reclaim budget (floor 128) when the
// backlog holds above 1.5× budget for two consecutive CPs. Shedding defers
// bitmap-page reclaim CPU out of the storm window, so the closed arm's
// modeled wall (CPU + device busy) must come in at or under the static
// arm's — the do-some-good counterpart to the clean-run do-no-harm gate.

// StormBench is the two-arm comparison plus the closed arm's decision
// provenance totals.
type StormBench struct {
	// Rounds is the number of churn+snapshot rounds each arm ran.
	Rounds int
	// Budget is the hand-set per-CP delayed-free reclaim budget both arms
	// start from; BudgetEnd is the closed arm's final (possibly shed) value.
	Budget, BudgetEnd int
	// WallStatic / WallClosed are each arm's modeled wall: CPU time plus
	// device busy time.
	WallStatic, WallClosed time.Duration
	// PendingStatic / PendingClosed are the delayed-free backlogs left at
	// run end (the closed arm sheds reclaim, so its backlog is the larger).
	PendingStatic, PendingClosed uint64
	// Controller totals for the closed arm (the static arm has none).
	Evaluations, Actuations, Suppressed uint64
	// WrittenStatic / WrittenClosed fingerprint the workload: both arms
	// write the identical block stream regardless of controller action.
	WrittenStatic, WrittenClosed uint64
	// LastRecord is the closed arm's final actuation record rendered as
	// provenance ("cp=N policy clause old→new"), "" if nothing fired.
	LastRecord string
}

// Identical reports whether both arms saw the identical write stream.
func (b StormBench) Identical() bool { return b.WrittenStatic == b.WrittenClosed }

// Gate is the experiment's acceptance condition, hard floors rather than
// bands: the backlog-shed clause must fire, shedding must not cost wall
// time, and the controller must never perturb the write stream itself.
func (b StormBench) Gate() error {
	if b.Actuations == 0 {
		return fmt.Errorf("storm: no actuations — the backlog-shed clause is dead")
	}
	if b.WallClosed > b.WallStatic {
		return fmt.Errorf("storm: closed-loop wall %v exceeds static %v", b.WallClosed, b.WallStatic)
	}
	if !b.Identical() {
		return fmt.Errorf("storm: arms diverged (written %d vs %d)", b.WrittenClosed, b.WrittenStatic)
	}
	return nil
}

// Rows are the closed arm's decision totals and both arms' modeled walls.
func (b StormBench) Rows() (ms benchfmt.Metrics) {
	ms.Add("control.storm.evaluations", float64(b.Evaluations), "count", 0.25)
	ms.Add("control.storm.actuations", float64(b.Actuations), "count", 0.25)
	ms.Add("control.storm.suppressed", float64(b.Suppressed), "count", 0.25)
	ms.Add("control.storm.wall_static_ns", float64(b.WallStatic), "ns", 0.10)
	ms.Add("control.storm.wall_closed_ns", float64(b.WallClosed), "ns", 0.10)
	if b.WallStatic > 0 {
		ms.Add("control.storm.wall_ratio", float64(b.WallClosed)/float64(b.WallStatic), "x", 0.10)
	}
	return ms
}

// stormRounds is the number of churn+snapshot rounds: enough CPs for the
// backlog to build, the hold to mature, and several shed steps to land.
const stormRounds = 16

// stormPolicies builds the storm portfolio around the configured budget: the
// guaranteed backlog_shed clause plus an SLO-burn clause that fires only if
// the latency SLI pages mid-storm. min=128 keeps every shed strictly below
// any reachable budget (so steps only ever decrease, never clamp upward) and
// clear of the knob's 0=unlimited sentinel.
func stormPolicies(budget int) *control.Set {
	spec := fmt.Sprintf(
		"name=backlog_shed,signal=vol.*.delayed.pending,op=>,value=%d,hold=2,action=delayed_budget,step=-50%%,min=128;"+
			"name=burn_shed,signal=slo.latency.vol.*.state,op=>,value=0.5,hold=2,action=delayed_budget,step=-25%%,min=128",
		budget*3/2)
	pols, err := control.ParsePolicies(spec)
	if err != nil {
		panic("experiments: storm portfolio invalid: " + err.Error())
	}
	return control.NewSet(pols)
}

// RunStorm ages one system per arm under the identical seeded storm and
// compares walls. Both arms use private sinks (their own tsdb and SLO set)
// so the storm's intentional backlog and latency pages never leak into the
// shared export registry or the audit's clean-arm checks.
func RunStorm(cfg Config, w io.Writer) StormBench {
	budget := int(cfg.scaled(1500, 375))

	run := func(name string, ctl *control.Set) *wafl.System {
		tun := cfg.tunablesNamed(name)
		tun.DelayedVirtFrees = true
		tun.DelayedFreeBudgetPerCP = budget
		// CPs are driven explicitly: one per storm round.
		tun.CPEveryOps = 1 << 30
		// Private sinks: the controller needs a tsdb to read its signals
		// from, and the burn_shed clause needs the SLO state series.
		tun.Obs = &wafl.ObsOptions{
			Name:    name,
			TSDB:    tsdb.NewStore(tsdb.Config{Capacity: 256, HistBuckets: tsdb.SuffixFilter(".lat_ns")}),
			SLO:     slo.NewSet(slo.DefaultSpecs()),
			Control: ctl,
		}
		per := cfg.scaled(1<<17, 1<<16)
		spec := wafl.GroupSpec{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: per,
			Media: aa.MediaHDD, StripesPerAA: 256}
		// Reclaim pops whole AAs, so the budget only bites when the backlog
		// spreads across many AAs: the LUNs span 4–8 virtual AAs (32k blocks
		// each) and the churn's COW frees scatter over all of them.
		vols := []wafl.VolSpec{
			{Name: "v0", Blocks: 16 * aa.RAIDAgnosticBlocks},
			{Name: "v1", Blocks: 16 * aa.RAIDAgnosticBlocks},
		}
		s := wafl.NewSystem([]wafl.GroupSpec{spec, spec}, vols, tun, cfg.Seed)
		lunBlocks := cfg.scaled(1<<18, 1<<17)
		luns := make([]*wafl.LUN, len(vols))
		for i, v := range s.Agg.Vols() {
			luns[i] = v.CreateLUN("l", lunBlocks)
			workload.SequentialFill(s, luns[i], 8)
			s.CP()
		}

		rng := rand.New(rand.NewSource(cfg.Seed))
		writes := int(cfg.scaled(6000, 1500))
		for round := 0; round < stormRounds; round++ {
			// Snapshot storm, at the CP boundary the previous round left: pin
			// the current state, then drop the snapshot from two rounds ago —
			// a mass free landing in the same delayed queue as the churn's.
			for i, l := range luns {
				if _, err := s.CreateSnapshot(l, fmt.Sprintf("s%d.%d", round, i)); err != nil {
					panic("experiments: storm snapshot: " + err.Error())
				}
				if round >= 2 {
					if _, err := s.DeleteSnapshot(l, fmt.Sprintf("s%d.%d", round-2, i)); err != nil {
						panic("experiments: storm snapshot delete: " + err.Error())
					}
				}
			}
			// Churn: every overwrite frees the old block into the delayed
			// queue, so frees per round outrun the reclaim budget.
			workload.RandomOverwrite(s, luns, rng, writes, 1)
			s.CP()
		}
		return s
	}

	static := run("storm.static", nil)
	ctl := stormPolicies(budget)
	closed := run("storm.closed", ctl)

	wall := func(s *wafl.System) time.Duration {
		c := s.Counters()
		return c.CPUTime + c.DeviceBusy
	}
	pending := func(s *wafl.System) uint64 {
		var n uint64
		for _, v := range s.Agg.Vols() {
			n += uint64(v.PendingFrees())
		}
		return n
	}
	tot := ctl.Totals()
	b := StormBench{
		Rounds:        stormRounds,
		Budget:        budget,
		BudgetEnd:     int(mustKnob(closed, control.KnobDelayedBudget)),
		WallStatic:    wall(static),
		WallClosed:    wall(closed),
		PendingStatic: pending(static),
		PendingClosed: pending(closed),
		Evaluations:   tot.Evaluations,
		Actuations:    tot.Actuations,
		Suppressed:    tot.Suppressed,
		WrittenStatic: static.Counters().BlocksWritten,
		WrittenClosed: closed.Counters().BlocksWritten,
	}
	for _, st := range ctl.Status() {
		for _, r := range st.Records {
			if r.Fired {
				b.LastRecord = fmt.Sprintf("cp=%d %s %s %.0f→%.0f", r.CP, r.Policy, r.Knob, r.Old, r.New)
			}
		}
	}

	fmt.Fprintln(w, "### storm — adversarial aging + snapshot storm: closed-loop vs static budget (modeled)")
	fmt.Fprintf(w, "  rounds: %d   budget: %d → %d (closed arm)   backlog at end: static %d, closed %d\n",
		b.Rounds, b.Budget, b.BudgetEnd, b.PendingStatic, b.PendingClosed)
	fmt.Fprintf(w, "  wall: static %v, closed-loop %v (%+.1f%%)\n",
		b.WallStatic, b.WallClosed, gain(float64(b.WallClosed), float64(b.WallStatic)))
	fmt.Fprintf(w, "  controller: %d evaluations, %d actuations, %d suppressed",
		b.Evaluations, b.Actuations, b.Suppressed)
	if b.LastRecord != "" {
		fmt.Fprintf(w, "   last: %s", b.LastRecord)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  written: static %d, closed %d (identical=%v)\n\n",
		b.WrittenStatic, b.WrittenClosed, b.Identical())
	return b
}

// mustKnob reads a knob off a system's actuator, 0 if absent.
func mustKnob(s *wafl.System, name string) float64 {
	v, _ := s.Actuator().Knob(name)
	return v
}
