package control

import (
	"strings"
	"testing"
)

func TestParsePoliciesCanonicalRoundTrip(t *testing.T) {
	in := "name=shed,signal=slo.latency.vol.*.burn_fast,op=>,value=2.0,hold=3," +
		"action=delayed_budget,step=-25%,min=256"
	pols, err := ParsePolicies(in)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(pols) != 1 {
		t.Fatalf("got %d policies, want 1", len(pols))
	}
	p := pols[0]
	if p.Name != "shed" || p.Signal != "slo.latency.vol.*.burn_fast" || p.Op != ">" ||
		p.Value != 2.0 || p.Hold != 3 || p.Action != KnobDelayedBudget ||
		p.Step.Amount != -25 || !p.Step.Percent || p.Min != 256 || p.Max != 0 {
		t.Fatalf("unexpected policy: %+v", p)
	}
	// Canonical form is pinned: this exact rendering is what ActuationRecord
	// carries and what the fuzz target round-trips.
	want := "name=shed,signal=slo.latency.vol.*.burn_fast,op=>,value=2,hold=3," +
		"action=delayed_budget,step=-25%,min=256"
	if got := p.String(); got != want {
		t.Fatalf("canonical form:\n got %q\nwant %q", got, want)
	}
	again, err := ParsePolicies(p.String())
	if err != nil {
		t.Fatalf("reparse canonical: %v", err)
	}
	if FormatPolicies(again) != want {
		t.Fatalf("round trip drifted: %q", FormatPolicies(again))
	}
}

func TestParsePoliciesDefaults(t *testing.T) {
	pols, err := ParsePolicies("default")
	if err != nil {
		t.Fatalf("parse default: %v", err)
	}
	if len(pols) != len(DefaultPolicies()) {
		t.Fatalf("default expanded to %d policies", len(pols))
	}
	// The stock portfolio must itself round-trip through the canonical form.
	s := FormatPolicies(pols)
	again, err := ParsePolicies(s)
	if err != nil {
		t.Fatalf("reparse defaults %q: %v", s, err)
	}
	if FormatPolicies(again) != s {
		t.Fatalf("defaults round trip drifted:\n %q\n %q", s, FormatPolicies(again))
	}
	// And a mixed string of default plus an extra clause keeps both.
	mixed, err := ParsePolicies("default;name=x,signal=cp.count,value=5,action=frag_every,step=+1")
	if err != nil {
		t.Fatalf("parse mixed: %v", err)
	}
	if len(mixed) != len(pols)+1 {
		t.Fatalf("mixed expanded to %d policies", len(mixed))
	}
	// Normalization filled the optional fields.
	last := mixed[len(mixed)-1]
	if last.Op != ">" || last.Hold != 3 {
		t.Fatalf("normalize failed: %+v", last)
	}
}

func TestParsePoliciesErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"semicolons only":  " ; ; ",
		"bad field":        "name=x,signal",
		"unknown key":      "name=x,signal=a.b,action=frag_every,step=+1,bogus=1",
		"bad op":           "name=x,signal=a.b,op=>=,value=1,action=frag_every,step=+1",
		"zero step":        "name=x,signal=a.b,value=1,action=frag_every,step=0",
		"unknown action":   "name=x,signal=a.b,value=1,action=warp_drive,step=+1",
		"bad action char":  "name=x,signal=a.b,value=1,action=frag_every,step=+1x",
		"empty segment":    "name=x,signal=a..b,value=1,action=frag_every,step=+1",
		"partial wildcard": "name=x,signal=a.b*,value=1,action=frag_every,step=+1",
		"reserved name":    "name=knob,signal=a.b,value=1,action=frag_every,step=+1",
		"min gt max":       "name=x,signal=a.b,value=1,action=frag_every,step=+1,min=9,max=3",
		"negative min":     "name=x,signal=a.b,value=1,action=frag_every,step=+1,min=-1",
		"nan value":        "name=x,signal=a.b,value=NaN,action=frag_every,step=+1",
		"inf step":         "name=x,signal=a.b,value=1,action=frag_every,step=+Inf",
		"zero hold":        "name=x,signal=a.b,value=1,hold=-1,action=frag_every,step=+1",
		"repeated key":     "name=x,signal=a.b,value=1,value=2,action=frag_every,step=+1",
		"dup names":        "name=x,signal=a.b,value=1,action=frag_every,step=+1;name=x,signal=c.d,value=1,action=frag_every,step=+1",
	}
	for label, in := range cases {
		if _, err := ParsePolicies(in); err == nil {
			t.Errorf("%s: ParsePolicies(%q) succeeded, want error", label, in)
		}
	}
}

func TestStepApplyAndFormat(t *testing.T) {
	cases := []struct {
		st   Step
		old  float64
		want float64
		str  string
	}{
		{Step{Amount: 8}, 16, 24, "+8"},
		{Step{Amount: -64}, 100, 36, "-64"},
		{Step{Amount: -50, Percent: true}, 8192, 4096, "-50%"},
		{Step{Amount: 25, Percent: true}, 100, 125, "+25%"},
	}
	for _, c := range cases {
		if got := c.st.apply(c.old); got != c.want {
			t.Errorf("%v.apply(%v) = %v, want %v", c.st, c.old, got, c.want)
		}
		if got := c.st.format(); got != c.str {
			t.Errorf("%v.format() = %q, want %q", c.st, got, c.str)
		}
		back, err := parseStep(c.str)
		if err != nil || back != c.st {
			t.Errorf("parseStep(%q) = %v, %v; want %v", c.str, back, err, c.st)
		}
	}
}

func TestMatchSignal(t *testing.T) {
	caps, ok := matchSignal("slo.latency.vol.*.state", "slo.latency.vol.v3.state")
	if !ok || len(caps) != 1 || caps[0] != "v3" {
		t.Fatalf("match: caps=%v ok=%v", caps, ok)
	}
	if _, ok := matchSignal("slo.latency.vol.*.state", "slo.latency.vol.v3.burn_fast"); ok {
		t.Fatal("mismatched tail matched")
	}
	if _, ok := matchSignal("a.*", "a.b.c"); ok {
		t.Fatal("'*' matched more than one segment")
	}
	if _, ok := matchSignal("a.b", "a.b"); !ok {
		t.Fatal("literal match failed")
	}
	if sp := spaceOf("slo.latency.vol.v3.state"); sp != "vol.v3" {
		t.Fatalf("spaceOf = %q", sp)
	}
	if sp := spaceOf("cp.count"); sp != "" {
		t.Fatalf("spaceOf non-vol = %q", sp)
	}
}

func FuzzParseControlPolicy(f *testing.F) {
	f.Add("default")
	f.Add(FormatPolicies(DefaultPolicies()))
	f.Add("name=shed,signal=slo.latency.vol.*.burn_fast,op=>,value=2.0,hold=3,action=delayed_budget,step=-25%,min=256")
	f.Add("signal=cp.count,value=5,action=frag_every,step=+1")
	f.Add("name=a,signal=x.*.y,op=<,value=-1e9,hold=1,action=alloc_batch,step=+100%,max=64")
	f.Add("name=k,signal=slo.recovery.state,value=1.5,action=scrub_kick,step=0.5")
	f.Add("name=x,signal=a.b,value=0x1p-2,action=frag_every,step=-1;default")
	f.Fuzz(func(t *testing.T, input string) {
		pols, err := ParsePolicies(input)
		if err != nil {
			return // invalid input is fine; it must just not panic
		}
		// Accepted input must render canonically and re-parse to the exact
		// same canonical form (parse∘format is idempotent).
		canon := FormatPolicies(pols)
		again, err := ParsePolicies(canon)
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", canon, err)
		}
		if got := FormatPolicies(again); got != canon {
			t.Fatalf("canonical round trip drifted:\n %q\n %q", canon, got)
		}
		for _, p := range again {
			if err := p.validate(); err != nil {
				t.Fatalf("reparsed policy invalid: %v", err)
			}
		}
		if strings.Count(canon, ";") != len(pols)-1 {
			t.Fatalf("clause count mismatch: %q for %d policies", canon, len(pols))
		}
	})
}
