package experiments

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/control"
	"waflfs/internal/faultinject"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// ruleDocsGolden pins SHA-256 digests of the /debug/slo and /debug/control
// documents (Set.WriteJSON) for one seeded run in which both engines fire.
// TestCPEngineGolden does not arm the controller and the worker-width suites
// compare a commit with itself, so these are what holds the two documents —
// field order, omitempty, transition logs, actuation records, exemplar links,
// canonical clause strings — byte for byte across commits. Recorded at the
// parent of the PR that moved both engines onto internal/obs/rule; a change
// that moves them on purpose re-records them and says why.
var ruleDocsGolden = map[string]string{
	"slo":     "5cd6ae0a57385cb76e83bdb3f6d353e0106d8244845417c5b770ea24c50a32e2",
	"control": "08ec08722da5df6bfc452ae67cdb57b8060bab7a2cf81622482c5cd15f3b56d7",
}

// ruleDocs runs two arms into one shared SLO set, control set, op tracer and
// store: a crash-matrix cell (torn TopAA save, so the remount falls back, the
// recovery SLI pages and the stock recovery_scrub clause kicks a scrub), and
// a snapshot storm on HDD whose read/write mix walks two latency SLIs up
// (ok→warn→page, ok→page) and back down through the hold, so burn_shed and
// the stock latency clauses arm, fire, clamp at their bounds and step back
// down, with every space-scoped transition and record linked to an exemplar
// trace; backlog_shed rides along on a plain gauge signal.
func ruleDocs(t *testing.T) (sloDoc, ctlDoc string) {
	t.Helper()
	specs, err := slo.ParseSpecs("default; name=lat20, kind=latency, target=0.9, threshold=20ms, page=2@1ms/4ms, warn=1.5@1ms/4ms, hold=2, min=8")
	if err != nil {
		t.Fatal(err)
	}
	pols, err := control.ParsePolicies("default;" +
		"name=backlog_shed,signal=vol.*.delayed.pending,op=>,value=600,hold=2,action=delayed_budget,step=-50%,min=128;" +
		"name=burn_shed,signal=slo.lat20.vol.*.state,value=0.5,hold=2,action=delayed_budget,step=-25%,min=128")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.Workers = 1
	cfg.Obs = &wafl.ObsOptions{
		TSDB:    tsdb.NewStore(tsdb.Config{Capacity: 256, HistBuckets: tsdb.SuffixFilter(".lat_ns")}),
		SLO:     slo.NewSet(specs),
		OpTrace: optrace.NewRecorder(optrace.Config{Rate: 4, Capacity: 64, Seed: 19}),
		Control: control.NewSet(pols),
	}

	plan, err := faultinject.ParsePlan("phase=topaa_groups,fault=torn,cp=2,seed=19")
	if err != nil {
		t.Fatal(err)
	}
	if cell := RunFaultScenario(cfg, plan, "crash.topaa_groups.torn"); !cell.Crashed || cell.Divergent != 0 {
		t.Fatalf("crash cell: %+v", cell)
	}

	tun := cfg.tunablesNamed("storm.closed")
	tun.DelayedVirtFrees = true
	tun.DelayedFreeBudgetPerCP = 400
	tun.CPEveryOps = 1 << 30
	spec := wafl.GroupSpec{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 1 << 16,
		Media: aa.MediaHDD, StripesPerAA: 256}
	s := wafl.NewSystem([]wafl.GroupSpec{spec, spec}, []wafl.VolSpec{
		{Name: "v0", Blocks: 16 * aa.RAIDAgnosticBlocks},
		{Name: "v1", Blocks: 16 * aa.RAIDAgnosticBlocks},
	}, tun, 19)
	var luns []*wafl.LUN
	for _, v := range s.Agg.Vols() {
		l := v.CreateLUN("l", 1<<15)
		workload.SequentialFill(s, l, 8)
		s.CP()
		luns = append(luns, l)
	}
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 12; round++ {
		for i, l := range luns {
			if _, err := s.CreateSnapshot(l, fmt.Sprintf("s%d.%d", round, i)); err != nil {
				t.Fatal(err)
			}
			if round >= 2 {
				if _, err := s.DeleteSnapshot(l, fmt.Sprintf("s%d.%d", round-2, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Reads come in under the objective and writes over it, so the mix
		// walks the SLI up through warn to page and back down again.
		writes, reads := 1200, 40
		if round < 3 || round >= 8 {
			writes, reads = 60, 3000
		}
		workload.RandomOverwrite(s, luns, rng, writes, 1)
		for i := 0; i < reads; i++ {
			s.Read(luns[i%2], uint64(rng.Intn(1<<15-8)), 8)
		}
		s.CP()
	}
	// A remount re-arms the system: both sets must rebind the engines they
	// hold (same store) rather than replace them, keeping every log.
	s.Agg.Remount(true)
	workload.RandomOverwrite(s, luns, rng, 600, 1)
	s.CP()

	// The scenario only pins something if both kinds fired on both arms.
	st, ct := cfg.Obs.SLO.Totals(), cfg.Obs.Control.Totals()
	if st.Systems != 2 || st.Pages < 3 || ct.Systems != 2 || ct.Actuations < 3 || ct.Suppressed == 0 {
		t.Fatalf("scenario went quiet: slo %+v, control %+v", st, ct)
	}
	write := func(f func(io.Writer) error) string {
		var b strings.Builder
		if err := f(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	return write(cfg.Obs.SLO.WriteJSON), write(cfg.Obs.Control.WriteJSON)
}

func TestRuleDocsGolden(t *testing.T) {
	sloDoc, ctlDoc := ruleDocs(t)
	for name, doc := range map[string]string{"slo": sloDoc, "control": ctlDoc} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(doc))); got != ruleDocsGolden[name] {
			t.Errorf("%s document digest %s, recorded %s\n%s", name, got, ruleDocsGolden[name], doc)
		}
	}
	for _, want := range []string{`"exemplar_trace"`, `"from": "warn"`, `"from": "page"`} {
		if !strings.Contains(sloDoc, want) {
			t.Errorf("slo document has no %s", want)
		}
	}
	for _, want := range []string{`"exemplar_trace"`, `"knob": "scrub_kick"`, `"reason": "clamped"`, `"from": "acted"`} {
		if !strings.Contains(ctlDoc, want) {
			t.Errorf("control document has no %s", want)
		}
	}
}
