package experiments

import (
	"io"
	"testing"

	"waflfs/internal/faultinject"
	"waflfs/internal/obs"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/wafl"
)

// The end-to-end SLO acceptance gate, through the audit every waflbench run
// with shared sinks gets: clean figure runs fire no alerts, and a crash fault
// run burns the recovery SLI's error budget and pages while the clean arms
// stay green.
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
	rows, err := Audit(cfg.Obs)
	if err != nil {
		t.Fatalf("clean fig6/fig9 arms: %v", err)
	}
	if m, _ := rows.Get("slo.evaluations"); m.Value == 0 {
		t.Fatal("SLO engine idle on clean figures")
	}

	plan, err := faultinject.ParsePlan("phase=flush,fault=torn,cp=2,seed=17")
	if err != nil {
		t.Fatal(err)
	}
	cell := RunFaultScenario(cfg, plan, "crash.flush.torn")
	if !cell.Crashed || cell.Fallbacks == 0 {
		t.Fatalf("fault scenario did not exercise recovery: %+v", cell)
	}
	rows, err = Audit(cfg.Obs)
	if err != nil {
		t.Fatalf("after the crash arm: %v", err)
	}
	if m, _ := rows.Get("slo.pages_crash"); m.Value == 0 {
		t.Fatal("the audit saw no crash arm page")
	}
	// The page must come with real budget consumption on the recovery SLI.
	var burned bool
	for _, st := range cfg.Obs.SLO.Status() {
		if family(st.System) < 0 {
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
}
