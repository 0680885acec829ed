package experiments

import (
	"io"
	"strings"
	"testing"

	"waflfs/internal/faultinject"
	"waflfs/internal/obs"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/wafl"
)

// The end-to-end SLO acceptance gate: clean figure runs fire no alerts,
// while a crash-matrix fault run burns error budget and pages. The same
// invariant is enforced during full artifact collection (hard error in
// CollectArtifact) and in the verify.sh waflbench smokes.
func TestSLOGateCleanFiguresStayGreenCrashPages(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figure arms")
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.Obs = &wafl.ObsOptions{
		Export: obs.NewRegistry(),
		TSDB:   tsdb.NewStore(tsdb.Config{Capacity: 128, HistBuckets: tsdb.SuffixFilter(".lat_ns")}),
		SLO:    slo.NewSet(slo.DefaultSpecs()),
	}

	RunFig6(cfg, io.Discard)
	RunFig9(cfg, io.Discard)
	clean := cfg.Obs.SLO.Totals()
	if clean.Evaluations == 0 || clean.Instances == 0 {
		t.Fatalf("SLO engine idle on clean figures: %+v", clean)
	}
	if clean.Pages != 0 || clean.Warns != 0 {
		var sb strings.Builder
		_ = cfg.Obs.SLO.WriteJSON(&sb)
		t.Fatalf("clean fig6/fig9 arms alerted (%d pages, %d warns):\n%s",
			clean.Pages, clean.Warns, sb.String())
	}

	plan, err := faultinject.ParsePlan("phase=flush,fault=torn,cp=2,seed=17")
	if err != nil {
		t.Fatal(err)
	}
	cell := RunFaultScenario(cfg, plan, "crash.flush.torn")
	if !cell.Crashed || cell.Fallbacks == 0 {
		t.Fatalf("fault scenario did not exercise recovery: %+v", cell)
	}

	isCrash := func(sys string) bool { return strings.HasPrefix(sys, "crash.") }
	crash := cfg.Obs.SLO.TotalsWhere(isCrash)
	if crash.Pages == 0 {
		var sb strings.Builder
		_ = cfg.Obs.SLO.WriteJSON(&sb)
		t.Fatalf("crash arm fired no page:\n%s", sb.String())
	}
	// The page must come with real budget consumption on the recovery SLI.
	var burned bool
	for _, st := range cfg.Obs.SLO.Status() {
		if !isCrash(st.System) {
			continue
		}
		for _, in := range st.Instances {
			if in.Kind == string(slo.Recovery) && in.BudgetUsed > 0 {
				burned = true
			}
		}
	}
	if !burned {
		t.Fatal("crash arm paged without burning recovery error budget")
	}
	// And the clean arms must still be green after the crash run.
	cleanAfter := cfg.Obs.SLO.TotalsWhere(func(sys string) bool { return !isCrash(sys) })
	if cleanAfter.Pages != 0 || cleanAfter.Warns != 0 {
		t.Fatalf("clean arms alerted after crash run: %+v", cleanAfter)
	}
}
