package experiments

import (
	"strings"
	"testing"

	"waflfs/internal/control"
	"waflfs/internal/obs/slo"
)

// Arms are clean unless they crash on purpose: both matrices' cells and
// waflbench's -faults scenario, classic or pipelined, sort into their own
// crash family.
func TestAuditFamilies(t *testing.T) {
	for sys, want := range map[string]string{
		"fig6.both":                        "",
		"ablate.bias0.05":                  "",
		"pipe.pipelined":                   "",
		"crash.flush.torn":                 "crash.",
		"crash.pipeline.overlap_alloc.rot": "crash.pipeline.",
		"faults":                           "faults",
		"faults.pipeline":                  "faults",
	} {
		got := ""
		if i := family(sys); i >= 0 {
			got = crashFamilies[i]
		}
		if got != want {
			t.Errorf("%s: family %q, want %q", sys, got, want)
		}
	}
}

// Each clause of the audit's contract, broken on a synthetic reading of the
// sinks: a reading that keeps the contract passes, and every breach returns
// an error naming it.
func TestAuditChecks(t *testing.T) {
	classic, pipelined, faults := 1+family("crash."), 1+family("crash.pipeline."), 1+family("faults")
	kept := func() tally {
		r := tally{arms: 4, watchdogs: true, wdChecks: 100, sampled: 10, attrNS: 500, latNS: 500}
		r.slo[0] = slo.Totals{Systems: 3, Evaluations: 30}
		r.ctl[0] = control.Totals{Systems: 3, Evaluations: 30}
		for _, f := range []int{classic, pipelined} {
			r.fellBack[f-1] = 3
			r.slo[f] = slo.Totals{Systems: 2, Evaluations: 8, Pages: 1, Transitions: 2}
			r.ctl[f] = control.Totals{Systems: 2, Evaluations: 8, Actuations: 1}
		}
		return r
	}
	for _, tc := range []struct {
		name string
		edit func(*tally)
		want string // substring of the audit error, "" for a pass
	}{
		{"contract kept", func(*tally) {}, ""},
		{"nothing armed", func(r *tally) { *r = tally{} }, ""},
		{"only private sinks ran", func(r *tally) { *r = tally{watchdogs: true} }, ""},
		{"clean arm pages", func(r *tally) { r.slo[0].Pages = 1 }, "1 SLO pages / 0 warns on clean arms"},
		{"clean arm warns", func(r *tally) { r.slo[0].Warns = 2 }, "0 SLO pages / 2 warns on clean arms"},
		{"clean arm actuates", func(r *tally) { r.ctl[0].Actuations = 1 }, "1 actuations / 0 suppressed decisions on clean arms"},
		{"clean arm holds back", func(r *tally) { r.ctl[0].Suppressed = 3 }, "0 actuations / 3 suppressed decisions on clean arms"},
		{"crash matrix never pages", func(r *tally) { r.slo[classic].Pages = 0 }, "crash.* arms fell back 3 times but fired no SLO page"},
		{"pipelined matrix never pages", func(r *tally) { r.slo[pipelined].Pages = 0 }, "crash.pipeline.* arms fell back 3 times but fired no SLO page"},
		{"crash matrix never acts", func(r *tally) { r.ctl[classic].Actuations = 0 }, "crash.* arms fell back 3 times but tripped no actuation"},
		{"fault scenario without damage", func(r *tally) {
			r.slo[faults] = slo.Totals{Systems: 1}
			r.ctl[faults] = control.Totals{Systems: 1}
		}, ""},
		{"fault scenario pages and acts", func(r *tally) {
			r.fellBack[faults-1] = 1
			r.slo[faults] = slo.Totals{Systems: 1, Pages: 1}
			r.ctl[faults] = control.Totals{Systems: 1, Actuations: 1}
		}, ""},
		{"fault scenario never pages", func(r *tally) {
			r.fellBack[faults-1] = 1
			r.slo[faults] = slo.Totals{Systems: 1}
		}, "faults* arms fell back 1 times but fired no SLO page"},
		{"watchdog violation", func(r *tally) { r.wdViol = 1 }, "1 watchdog violations"},
		{"watchdogs idle", func(r *tally) { r.wdChecks = 0 }, "watchdogs armed but performed no checks"},
		{"attribution short", func(r *tally) { r.attrNS = 400 }, "attribution coverage 0.800000"},
		{"attribution over", func(r *tally) { r.attrNS = 600 }, "attribution coverage 1.200000"},
	} {
		r := kept()
		tc.edit(&r)
		err := r.check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: audit failed: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: audit error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// The rows sum every family: evaluations over all arms, crash counts over
	// the crash families.
	rows := kept().rows()
	for name, want := range map[string]float64{
		"slo.evaluations": 46, "slo.pages_crash": 2, "slo.transitions_crash": 4,
		"control.actuations_crash": 2, "slo.pages_clean": 0, "optrace.attr_coverage": 1,
	} {
		if m, ok := rows.Get(name); !ok || m.Value != want {
			t.Errorf("%s = %v (present %v), want %v", name, m.Value, ok, want)
		}
	}
}
