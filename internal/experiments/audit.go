package experiments

import (
	"errors"
	"fmt"
	"strings"

	"waflfs/internal/benchfmt"
	"waflfs/internal/control"
	"waflfs/internal/obs"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/wafl"
)

// The audit reads the sinks every arm of a run shares (Config.Obs) once the
// run is over, and holds them to the contract the clean and the crash arms
// owe each other: the watchdogs ran and found nothing; clean arms neither
// warn, page nor actuate; every crash family whose mounts fell back to a
// bitmap walk paged the recovery SLI and kicked a scrub; and the per-stage
// latency attribution reconciles with the histograms it decomposes. Each
// check reads only what its sink saw, so any run with any subset of sinks
// armed is audited, and a run whose arms all keep private sinks (storm)
// leaves it nothing to read.

// crashFamilies are the arm-name prefixes of the arms that crash on purpose:
// the pipelined and the classic crash matrix's cells, and waflbench's -faults
// scenario. Every other arm is clean.
var crashFamilies = [...]string{"crash.pipeline.", "crash.", "faults"}

// family returns sys's index in crashFamilies, or -1 for a clean arm.
func family(sys string) int {
	for i, f := range crashFamilies {
		if strings.HasPrefix(sys, f) {
			return i
		}
	}
	return -1
}

// ArtifactSinks returns the shared sinks a BENCH_<n>.json run arms, so every
// audit check has something to read: the export registry, the watchdogs, the
// stock SLO and control portfolios over a modest time-series ring (burn-rate
// windows only need recent CPs, and a full run arms hundreds of systems), and
// op tracing at the default rate.
func ArtifactSinks(seed int64) *wafl.ObsOptions {
	return &wafl.ObsOptions{
		Export:    obs.NewRegistry(),
		Watchdogs: true,
		TSDB:      tsdb.NewStore(tsdb.Config{Capacity: 128, HistBuckets: tsdb.SuffixFilter(".lat_ns")}),
		SLO:       slo.NewSet(slo.DefaultSpecs()),
		OpTrace:   optrace.NewRecorder(optrace.Config{Seed: seed}),
		Control:   control.NewSet(control.DefaultPolicies()),
	}
}

// tally is what the audit reads off the shared sinks.
type tally struct {
	// arms counts the systems that registered in the export registry, and
	// watchdogs says whether their monitors were armed.
	arms             int
	watchdogs        bool
	wdChecks, wdViol uint64
	// fellBack counts each crash family's mount fallbacks — what its
	// recovery SLI pages on.
	fellBack [len(crashFamilies)]uint64
	// slo and ctl hold the clean arms' totals at index 0 and crash family
	// i's at 1+i.
	slo [1 + len(crashFamilies)]slo.Totals
	ctl [1 + len(crashFamilies)]control.Totals
	// sampled and slow count op-trace recordings; attrNS sums the per-stage
	// attribution counters and latNS the latency histograms they decompose.
	sampled, slow, attrNS, latNS uint64
}

// Audit reads o's sinks after a run (nil: nothing was armed) and returns the
// audit's rows and every broken check.
func Audit(o *wafl.ObsOptions) (benchfmt.Metrics, error) {
	if o == nil {
		return nil, nil
	}
	t := tally{watchdogs: o.Watchdogs}
	if o.Export != nil {
		for _, m := range o.Export.StableSnapshot().Metrics {
			switch {
			case strings.HasSuffix(m.Name, ".watchdog.checks"):
				// Registered by every arm, counted only when armed.
				t.arms++
				t.wdChecks += m.Value
			case strings.HasSuffix(m.Name, ".watchdog.violations"):
				// The global counter already includes every class counter.
				t.wdViol += m.Value
			case strings.HasSuffix(m.Name, ".mount.fallbacks") && family(m.Name) >= 0:
				t.fellBack[family(m.Name)] += m.Value
			case m.Kind == obs.KindCounter && strings.Contains(m.Name, ".attr.") && strings.HasSuffix(m.Name, "_ns"):
				t.attrNS += m.Value
			case m.Kind == obs.KindHistogram && strings.HasSuffix(m.Name, ".lat_ns"):
				t.latNS += m.Hist.Sum
			}
		}
	}
	for i := range t.slo {
		in := func(sys string) bool { return family(sys) == i-1 }
		t.slo[i], t.ctl[i] = o.SLO.TotalsWhere(in), o.Control.TotalsWhere(in)
	}
	t.sampled, t.slow = o.OpTrace.TotalSampled(), o.OpTrace.TotalSlowSampled()
	return t.rows(), t.check()
}

// coverage is Σ attr.*_ns ÷ Σ lat_ns, 0 when no op was observed.
func (t tally) coverage() float64 {
	if t.latNS == 0 {
		return 0
	}
	return float64(t.attrNS) / float64(t.latNS)
}

// check returns every broken clause of the contract.
func (t tally) check() error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf("audit: "+format, args...)) }
	if t.watchdogs && t.arms > 0 && t.wdChecks == 0 {
		fail("watchdogs armed but performed no checks")
	}
	if t.wdViol != 0 {
		fail("%d watchdog violations", t.wdViol)
	}
	if c := t.slo[0]; c.Pages != 0 || c.Warns != 0 {
		fail("%d SLO pages / %d warns on clean arms", c.Pages, c.Warns)
	}
	if c := t.ctl[0]; c.Actuations != 0 || c.Suppressed != 0 {
		fail("the controller made %d actuations / %d suppressed decisions on clean arms", c.Actuations, c.Suppressed)
	}
	for i, f := range crashFamilies {
		if t.fellBack[i] == 0 {
			continue
		}
		if s := t.slo[1+i]; s.Systems > 0 && s.Pages == 0 {
			fail("%s* arms fell back %d times but fired no SLO page — the recovery SLI is dead", f, t.fellBack[i])
		}
		if c := t.ctl[1+i]; c.Systems > 0 && c.Actuations == 0 {
			fail("%s* arms fell back %d times but tripped no actuation — the recovery scrub-kick clause is dead", f, t.fellBack[i])
		}
	}
	if cov := t.coverage(); t.latNS > 0 && (cov < 0.999 || cov > 1.001) {
		fail("attribution coverage %.6f — attr.*_ns counters do not reconcile with lat_ns histograms", cov)
	}
	return errors.Join(errs...)
}

// rows are the audit's totals: all arms' evaluations, the clean arms' alerts
// and decisions (pinned at 0 by a 0.1% band), and the crash families' sums.
func (t tally) rows() (ms benchfmt.Metrics) {
	var sloEvals, sloInsts, pages, trans, ctlEvals, ctlInsts, acts uint64
	for i := range t.slo {
		sloEvals += t.slo[i].Evaluations
		sloInsts += uint64(t.slo[i].Instances)
		ctlEvals += t.ctl[i].Evaluations
		ctlInsts += uint64(t.ctl[i].Instances)
		if i > 0 {
			pages += t.slo[i].Pages
			trans += t.slo[i].Transitions
			acts += t.ctl[i].Actuations
		}
	}
	ms.Add("watchdog.checks", float64(t.wdChecks), "count", 0.25)
	ms.Add("watchdog.violations", float64(t.wdViol), "count", 0.001)
	ms.Add("slo.evaluations", float64(sloEvals), "count", 0.25)
	ms.Add("slo.instances", float64(sloInsts), "count", 0.25)
	ms.Add("slo.pages_clean", float64(t.slo[0].Pages), "count", 0.001)
	ms.Add("slo.warns_clean", float64(t.slo[0].Warns), "count", 0.001)
	ms.Add("slo.pages_crash", float64(pages), "count", 0.25)
	ms.Add("slo.transitions_crash", float64(trans), "count", 0.25)
	ms.Add("control.evaluations", float64(ctlEvals), "count", 0.25)
	ms.Add("control.instances", float64(ctlInsts), "count", 0.25)
	ms.Add("control.actuations_clean", float64(t.ctl[0].Actuations), "count", 0.001)
	ms.Add("control.suppressed_clean", float64(t.ctl[0].Suppressed), "count", 0.001)
	ms.Add("control.actuations_crash", float64(acts), "count", 0.25)
	ms.Add("optrace.sampled_ops", float64(t.sampled), "count", 0.25)
	ms.Add("optrace.slow_sampled", float64(t.slow), "count", 0.50)
	ms.Add("optrace.attr_coverage", t.coverage(), "frac", 0.001)
	return ms
}
