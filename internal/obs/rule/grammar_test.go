package rule_test

import (
	"strings"
	"testing"

	"waflfs/internal/control"
	"waflfs/internal/faultinject"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/rule"
	"waflfs/internal/obs/slo"
)

// parser is one of the four spec parsers behind the shared grammar, reduced
// to "string in, canonical string out".
type parser struct {
	name  string
	parse func(string) (string, error)
	// clause is a canonical clause that sets every key it mentions
	// explicitly; dup repeats one of its keys.
	clause, dup string
	// portfolio parsers take ';'-separated clauses and the "default" clause
	// anywhere; the single-clause ones take "default" (optrace) or nothing.
	portfolio bool
	// emptyOK parsers read the empty string as "all defaults".
	emptyOK bool
}

var parsers = []parser{
	{
		name: "slo",
		parse: func(s string) (string, error) {
			specs, err := slo.ParseSpecs(s)
			return slo.FormatSpecs(specs), err
		},
		clause:    "name=x,kind=recovery,target=0.9,page=10@30s/5m0s,warn=2@2m30s/20m0s,hold=3,min=1",
		dup:       "target=0.5",
		portfolio: true,
	},
	{
		name: "control",
		parse: func(s string) (string, error) {
			pols, err := control.ParsePolicies(s)
			return control.FormatPolicies(pols), err
		},
		clause:    "name=x,signal=a.*.b,op=>,value=1,hold=3,action=frag_every,step=+1,max=8",
		dup:       "value=2",
		portfolio: true,
	},
	{
		name: "optrace",
		parse: func(s string) (string, error) {
			cfg, err := optrace.ParseConfig(s)
			return cfg.String(), err
		},
		clause:  "rate=8,slow=5ms,cap=64,seed=42",
		dup:     "rate=4",
		emptyOK: true,
	},
	{
		name: "faultinject",
		parse: func(s string) (string, error) {
			plan, err := faultinject.ParsePlan(s)
			return plan.String(), err
		},
		clause:  "phase=alloc,fault=torn,cp=1,seed=7,target=rg0,devreaderr=100",
		dup:     "cp=2",
		emptyOK: true,
	},
}

// One grammar, tested once: every parser splits, trims, skips and rejects the
// same way, whatever its keys mean.
func TestGrammarConformance(t *testing.T) {
	for _, p := range parsers {
		t.Run(p.name, func(t *testing.T) {
			accept := func(in, want string) {
				t.Helper()
				if got, err := p.parse(in); err != nil || got != want {
					t.Errorf("parse(%q) = %q, %v; want %q", in, got, err, want)
				}
			}
			reject := func(label, in string) {
				t.Helper()
				if got, err := p.parse(in); err == nil {
					t.Errorf("%s: parse(%q) accepted as %q", label, in, got)
				}
			}

			accept(p.clause, p.clause)
			// Blank fields, a trailing comma and blanks around ',' and '='
			// change nothing.
			accept(p.clause+",", p.clause)
			accept(",, "+p.clause+" ,", p.clause)
			spaced := strings.NewReplacer(",", " , ", "=", " = ").Replace(p.clause)
			accept("  "+spaced+"  ", p.clause)

			reject("field without '='", p.clause+",bogus")
			reject("unknown key", p.clause+",nosuchkey=1")
			reject("duplicate key", p.clause+","+p.dup)
			reject("duplicate key, same value", p.clause+","+strings.SplitN(p.clause, ",", 2)[0])

			for _, empty := range []string{"", "  ", ",", " , ,"} {
				if p.emptyOK {
					if _, err := p.parse(empty); err != nil {
						t.Errorf("parse(%q): %v", empty, err)
					}
				} else {
					reject("empty input", empty)
				}
			}

			if !p.portfolio {
				reject("second clause", p.clause+";"+p.clause)
				return
			}
			reject("blank clauses only", " ; ;; ")
			accept(";"+p.clause+"; ;", p.clause)
			reject("duplicate name", p.clause+";"+p.clause)
			reject("default twice", "default;default")
			// "default" expands in place, wherever it stands.
			def, err := p.parse(" default ")
			if err != nil || def == "" {
				t.Fatalf("parse(default) = %q, %v", def, err)
			}
			accept("default;"+p.clause, def+";"+p.clause)
			accept(p.clause+" ;default", p.clause+";"+def)
			reject("default as a field", p.clause+",default")
		})
	}
}

// Canonical forms recorded at the commit before the four parsers moved onto
// this package: what they accepted then, they parse to the same value now.
func TestGrammarPinnedForms(t *testing.T) {
	const defSLO = "name=latency,kind=latency,space=vol.*,target=0.99,threshold=20ms,page=10@30s/5m0s,warn=2@2m30s/20m0s,hold=3,min=64;" +
		"name=stall,kind=stall,space=*,target=0.99,page=10@30s/5m0s,warn=2@2m30s/20m0s,hold=3,min=64;" +
		"name=watchdog,kind=watchdog,target=0.9999,page=10@30s/5m0s,warn=2@2m30s/20m0s,hold=3,min=1;" +
		"name=recovery,kind=recovery,target=0.999,page=10@30s/5m0s,warn=2@2m30s/20m0s,hold=3,min=1"
	const defControl = "name=latency_shed,signal=slo.latency.vol.*.state,op=>,value=0.5,hold=2,action=delayed_budget,step=-50%,min=256;" +
		"name=latency_batch,signal=slo.latency.vol.*.state,op=>,value=0.5,hold=2,action=alloc_batch,step=+8,max=64;" +
		"name=stall_backoff,signal=slo.stall.vol.*.state,op=>,value=0.5,hold=2,action=frag_every,step=+2,max=8;" +
		"name=recovery_scrub,signal=slo.recovery.state,op=>,value=1.5,hold=1,action=scrub_kick,step=+1,max=8"
	for _, c := range []struct{ parser, in, want string }{
		{"slo", "default; name=lat20, kind=latency, target=0.9, threshold=20ms, page=2@1ms/4ms, warn=1.5@1ms/4ms, hold=2, min=8 ; kind = ratio , target=0.5,bad=a.b,total=c.d,;",
			defSLO + ";name=lat20,kind=latency,space=vol.*,target=0.9,threshold=20ms,page=2@1ms/4ms,warn=1.5@1ms/4ms,hold=2,min=8" +
				";name=ratio,kind=ratio,target=0.5,bad=a.b,total=c.d,page=10@30s/5m0s,warn=2@2m30s/20m0s,hold=3,min=1"},
		{"control", " name=burn_shed, signal=slo.lat20.vol.*.state,value=0.5,hold=2,action=delayed_budget,step=-25%,min=128, ;default",
			"name=burn_shed,signal=slo.lat20.vol.*.state,op=>,value=0.5,hold=2,action=delayed_budget,step=-25%,min=128;" + defControl},
		{"optrace", " rate = 8 , slow=5ms,,cap=64,seed=-3", "rate=8,slow=5ms,cap=64,seed=-3"},
	} {
		for _, p := range parsers {
			if p.name != c.parser {
				continue
			}
			if got, err := p.parse(c.in); err != nil || got != c.want {
				t.Errorf("%s: parse(%q) =\n %q, %v; recorded\n %q", c.parser, c.in, got, err, c.want)
			}
		}
	}
}

func TestValidNamePatternFinite(t *testing.T) {
	for s, want := range map[string][2]bool{
		"":         {false, false},
		"a.b-c_9Z": {true, true},
		"vol.*":    {false, true},
		"a,b":      {false, false},
		"a=b":      {false, false},
		"a;b":      {false, false},
		"a b":      {false, false},
		"é":        {false, false},
	} {
		if got := [2]bool{rule.ValidName(s), rule.ValidPattern(s)}; got != want {
			t.Errorf("%q: name/pattern = %v, want %v", s, got, want)
		}
	}
}

// FuzzClause drives the splitter with arbitrary input: no panics; every field
// it hands out is trimmed, '='-split at the first '=', comma-free and under a
// key not seen before; and the fields re-joined canonically split to the same
// fields again. The fault-plan parser rides along for its parse∘format round
// trip (the other three parsers have fuzzers of their own).
func FuzzClause(f *testing.F) {
	for _, p := range parsers {
		f.Add(p.clause)
		f.Add(p.clause + "," + p.dup)
	}
	f.Add(" a = b , c==d,, e= ,")
	f.Add("=,=")
	f.Add("phase=alloc,cp=-3")
	f.Fuzz(func(t *testing.T, in string) {
		type kv struct{ k, v string }
		split := func(s string) ([]kv, error) {
			var out []kv
			err := rule.Fields(s, func(k, v string) error {
				out = append(out, kv{k, v})
				return nil
			})
			return out, err
		}
		fields, err := split(in)
		if err == nil {
			seen := map[string]bool{}
			parts := make([]string, len(fields))
			for i, f := range fields {
				if f.k != strings.TrimSpace(f.k) || f.v != strings.TrimSpace(f.v) ||
					strings.ContainsAny(f.k, ",=") || strings.Contains(f.v, ",") || seen[f.k] {
					t.Fatalf("Fields(%q) handed out %q=%q", in, f.k, f.v)
				}
				seen[f.k] = true
				parts[i] = f.k + "=" + f.v
			}
			again, err := split(strings.Join(parts, ","))
			if err != nil || len(again) != len(fields) {
				t.Fatalf("canonical join of %q does not resplit: %v, %v", in, again, err)
			}
			for i := range again {
				if again[i] != fields[i] {
					t.Fatalf("canonical join of %q resplit to %v, want %v", in, again, fields)
				}
			}
		}
		if plan, err := faultinject.ParsePlan(in); err == nil {
			if plan.CrashCP < 0 {
				t.Fatalf("ParsePlan(%q) accepted a crash CP that can never come: %+v", in, plan)
			}
			if rt, err := faultinject.ParsePlan(plan.String()); err != nil || rt != plan {
				t.Fatalf("plan %q -> %q did not round trip (got %+v, %v)", in, plan, rt, err)
			}
		}
	})
}
