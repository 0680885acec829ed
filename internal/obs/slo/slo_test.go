package slo

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"waflfs/internal/obs/tsdb"
)

func TestParseSpecsDefault(t *testing.T) {
	specs, err := ParseSpecs("default")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, DefaultSpecs()) {
		t.Fatalf("default expansion mismatch:\n%+v\nvs\n%+v", specs, DefaultSpecs())
	}
	var names []string
	for _, sp := range specs {
		names = append(names, sp.Name)
	}
	want := []string{"latency", "stall", "watchdog", "recovery"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("default names = %v, want %v", names, want)
	}
}

func TestParseSpecsCustom(t *testing.T) {
	in := "name=slowvol,kind=latency,space=vol.db-*,target=0.995,threshold=10ms," +
		"page=14@15s/2m,warn=3@1m/10m,hold=2,min=32"
	specs, err := ParseSpecs(in)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Name: "slowvol", Kind: Latency, Space: "vol.db-*", Target: 0.995,
		Threshold: 10 * time.Millisecond,
		Page:      Window{Burn: 14, Fast: 15 * time.Second, Slow: 2 * time.Minute},
		Warn:      Window{Burn: 3, Fast: time.Minute, Slow: 10 * time.Minute},
		Hold:      2, MinEvents: 32}
	if len(specs) != 1 || specs[0] != want {
		t.Fatalf("parsed %+v, want %+v", specs, want)
	}
	// Canonical form round-trips.
	again, err := ParseSpecs(FormatSpecs(specs))
	if err != nil {
		t.Fatalf("reparse canonical form: %v", err)
	}
	if !reflect.DeepEqual(again, specs) {
		t.Fatalf("round trip changed spec: %+v vs %+v", again, specs)
	}
}

func TestParseSpecsDefaultsFill(t *testing.T) {
	specs, err := ParseSpecs("kind=stall,target=0.9")
	if err != nil {
		t.Fatal(err)
	}
	sp := specs[0]
	if sp.Name != "stall" || sp.Space != "*" || sp.Hold != 3 || sp.MinEvents != 1 {
		t.Fatalf("defaults not filled: %+v", sp)
	}
	if sp.Page != defaultPage || sp.Warn != defaultWarn {
		t.Fatalf("window defaults not filled: %+v", sp)
	}
}

func TestParseSpecsErrors(t *testing.T) {
	bad := []string{
		"",
		";;",
		"kind=bogus,target=0.5",
		"target=0.5", // no kind
		"kind=recovery,target=0",
		"kind=recovery,target=1",
		"kind=recovery,target=0.5,space=vol.*", // space on system-level kind
		"kind=recovery,target=0.5,threshold=10ms",   // threshold off-latency
		"kind=ratio,target=0.5",                     // missing bad/total
		"kind=recovery,target=0.5,bad=x,total=y",    // bad/total off-ratio
		"name=evaluations,kind=recovery,target=0.5", // reserved name
		"name=a;b,kind=recovery,target=0.5",         // invalid char via clause split
		"kind=recovery,target=0.5,page=0@1s/2s",     // zero burn
		"kind=recovery,target=0.5,page=1@5s/2s",     // fast > slow
		"kind=recovery,target=0.5,page=1@1s",        // malformed window
		"kind=recovery,target=0.5,hold=-1",
		"kind=recovery,target=0.5,junk=1",
		"kind=recovery",                           // zero target
		"default;default",                         // duplicate names
		"kind=recovery,target=0.9,page=NaN@1s/2s", // NaN burn: validates under <=, never fires
		"kind=recovery,target=0.9,page=Inf@1s/2s",
		"kind=recovery,target=0.9,warn=-Inf@1s/2s",
		"kind=recovery,target=0.9,target=0.5", // repeated key
	}
	for _, in := range bad {
		if specs, err := ParseSpecs(in); err == nil {
			t.Errorf("ParseSpecs(%q) accepted: %+v", in, specs)
		}
	}
}

// obsSeries writes one counter sample the way Sample would.
func obsSeries(s *tsdb.Store, name string, cp uint64, at time.Duration, v float64) {
	s.Observe(name, cp, at, v)
}

func recoverySpecs(t *testing.T, clause string) []Spec {
	t.Helper()
	specs, err := ParseSpecs(clause)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestEngineRecoveryPagesOnMountFallback(t *testing.T) {
	specs := recoverySpecs(t, "name=rec,kind=recovery,target=0.999,page=10@2s/4s,warn=9@2s/4s,hold=2,min=1")
	store := tsdb.NewStore(tsdb.Config{Capacity: 64})
	e := NewEngine("arm", specs, store)

	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	fallbacks := func(cp uint64) float64 {
		if cp >= 2 {
			return 1
		}
		return 0
	}
	states := make([]float64, 0, 5)
	for cp := uint64(1); cp <= 5; cp++ {
		obsSeries(store, "arm.mount.count", cp, sec(int(cp)), float64(cp))
		obsSeries(store, "arm.mount.fallbacks", cp, sec(int(cp)), fallbacks(cp))
		e.Evaluate(cp, sec(int(cp)))
		v, ok := store.ValueAt("arm.slo.rec.state", cp)
		if !ok {
			t.Fatalf("no state series at cp %d", cp)
		}
		states = append(states, v)
	}
	// cp1 clean; the cp2 fallback pages immediately (both windows still span
	// the whole run); the windows slide past the event at cp4 but hysteresis
	// holds the page until two calm evals have passed (cp5).
	want := []float64{0, 2, 2, 2, 0}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("state series = %v, want %v", states, want)
	}
	if got := e.Pages(); got != 1 {
		t.Fatalf("pages = %d, want 1", got)
	}
	if got := e.Transitions(); got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}
	st := e.Status()
	if len(st.Transitions) != 2 ||
		st.Transitions[0].To != StatePage || st.Transitions[0].CP != 2 ||
		st.Transitions[1].To != StateOK || st.Transitions[1].CP != 5 {
		t.Fatalf("transition log = %+v", st.Transitions)
	}
	if st.Instances[0].State != "ok" || st.Instances[0].SinceCP != 5 {
		t.Fatalf("instance status = %+v", st.Instances[0])
	}
}

func TestEngineLatencyThresholdSnapAndQuantile(t *testing.T) {
	specs := recoverySpecs(t, "name=lat,kind=latency,space=vol.*,target=0.9,threshold=500ns,page=5@2s/4s,warn=2@2s/4s,hold=3,min=1")
	store := tsdb.NewStore(tsdb.Config{Capacity: 64})
	e := NewEngine("arm", specs, store)

	base := "arm.vol.v0.lat_ns"
	write := func(cp uint64, at time.Duration, le10, le100, le1000, count float64) {
		obsSeries(store, base+".le_10", cp, at, le10)
		obsSeries(store, base+".le_100", cp, at, le100)
		obsSeries(store, base+".le_1000", cp, at, le1000)
		obsSeries(store, base+".count", cp, at, count)
	}
	// cp1: ten ops, all under the snapped 1000ns bound — clean.
	write(1, time.Second, 5, 8, 10, 10)
	e.Evaluate(1, time.Second)
	if v, _ := store.ValueAt("arm.slo.lat.vol.v0.state", 1); v != 0 {
		t.Fatalf("clean cp1 state = %v", v)
	}
	// cp2: ten more ops, every one above 1000ns. Bad fraction 0.5 over the
	// run → burn 0.5/0.1 = 5 on both windows → page.
	write(2, 2*time.Second, 5, 8, 10, 20)
	e.Evaluate(2, 2*time.Second)
	if v, _ := store.ValueAt("arm.slo.lat.vol.v0.state", 2); v != float64(StatePage) {
		t.Fatalf("cp2 state = %v, want page", v)
	}
	st := e.Status().Instances[0]
	if st.Name != "lat.vol.v0" || st.Kind != "latency" {
		t.Fatalf("instance = %+v", st)
	}
	if st.WindowBad != 10 || st.WindowTotal != 20 {
		t.Fatalf("window bad/total = %v/%v, want 10/20", st.WindowBad, st.WindowTotal)
	}
	// p90 over the window lands in the +Inf bucket and clamps to the top
	// finite bound.
	if st.PNs != 1000 {
		t.Fatalf("p_ns = %v, want 1000", st.PNs)
	}
	if v, _ := store.ValueAt("arm.slo.lat.vol.v0.p_ns", 2); v != 1000 {
		t.Fatalf("p_ns series = %v, want 1000", v)
	}
}

func TestEngineStallWildcardExpansion(t *testing.T) {
	specs := recoverySpecs(t, "name=st,kind=stall,space=vol.*,target=0.99")
	store := tsdb.NewStore(tsdb.Config{Capacity: 16})
	for _, space := range []string{"vol.b", "vol.a", "pool"} {
		obsSeries(store, "arm."+space+".alloc.picks", 1, time.Second, 100)
		obsSeries(store, "arm."+space+".alloc.refill_stalls", 1, time.Second, 0)
	}
	e := NewEngine("arm", specs, store)
	e.Evaluate(1, time.Second)
	st := e.Status()
	var names []string
	for _, in := range st.Instances {
		names = append(names, in.Name)
	}
	want := []string{"st.vol.a", "st.vol.b"} // pool excluded, sorted
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("instances = %v, want %v", names, want)
	}

	// A volume added later (series appear mid-run) joins at the next eval.
	obsSeries(store, "arm.vol.c.alloc.picks", 2, 2*time.Second, 50)
	e.Evaluate(2, 2*time.Second)
	if n := len(e.Status().Instances); n != 3 {
		t.Fatalf("instances after growth = %d, want 3", n)
	}
}

// A system whose name is a string prefix of another system sharing the
// store ("ablate.bias0" / "ablate.bias0.05") must not adopt the sibling's
// spaces as pseudo-spaces like "05.rg0" — whether that happens would
// otherwise depend on which arms' series coexist in the store, i.e. on
// experiment interleaving, breaking worker-width determinism.
func TestExpansionIgnoresPrefixNestedSiblingSystems(t *testing.T) {
	specs := recoverySpecs(t, "name=st,kind=stall,space=*,target=0.99")
	store := tsdb.NewStore(tsdb.Config{Capacity: 16})
	for _, sys := range []string{"ablate.bias0", "ablate.bias0.05"} {
		for _, space := range []string{"rg0", "vol.v", "pool"} {
			obsSeries(store, sys+"."+space+".alloc.picks", 1, time.Second, 100)
			obsSeries(store, sys+"."+space+".alloc.refill_stalls", 1, time.Second, 0)
		}
	}
	e := NewEngine("ablate.bias0", specs, store)
	e.Evaluate(1, time.Second)
	var names []string
	for _, in := range e.Status().Instances {
		names = append(names, in.Name)
	}
	want := []string{"st.pool", "st.rg0", "st.vol.v"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("instances = %v, want %v (sibling spaces leaked)", names, want)
	}
}

func TestSetTotalsSplitBySystemPrefix(t *testing.T) {
	set := NewSet(recoverySpecs(t, "name=rec,kind=recovery,target=0.999,min=1"))
	cleanStore := tsdb.NewStore(tsdb.Config{Capacity: 16})
	crashStore := tsdb.NewStore(tsdb.Config{Capacity: 16})
	clean := set.Engine("fig6.base", cleanStore)
	crash := set.Engine("crash.flush.torn", crashStore)

	for cp := uint64(1); cp <= 2; cp++ {
		at := time.Duration(cp) * time.Second
		obsSeries(cleanStore, "fig6.base.mount.count", cp, at, float64(cp))
		obsSeries(cleanStore, "fig6.base.mount.fallbacks", cp, at, 0)
		clean.Evaluate(cp, at)
		obsSeries(crashStore, "crash.flush.torn.mount.count", cp, at, float64(cp))
		obsSeries(crashStore, "crash.flush.torn.mount.fallbacks", cp, at, float64(cp-1))
		crash.Evaluate(cp, at)
	}

	tot := set.Totals()
	if tot.Systems != 2 || tot.Pages != 1 || tot.ActivePages != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	crashTot := set.TotalsWhere(func(sys string) bool { return strings.HasPrefix(sys, "crash.") })
	if crashTot.Pages != 1 || crashTot.Systems != 1 {
		t.Fatalf("crash totals = %+v", crashTot)
	}
	cleanTot := set.TotalsWhere(func(sys string) bool { return !strings.HasPrefix(sys, "crash.") })
	if cleanTot.Pages != 0 || cleanTot.Warns != 0 || cleanTot.Systems != 1 {
		t.Fatalf("clean totals = %+v", cleanTot)
	}

	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{`"system": "crash.flush.torn"`, `"state": "page"`, `"totals"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("status JSON missing %q:\n%s", frag, out)
		}
	}

	// Re-requesting an engine for the same (sys, store) returns the same
	// engine; totals don't double-count.
	if set.Engine("fig6.base", cleanStore) != clean {
		t.Fatal("engine identity lost on re-request")
	}
	if set.Totals().Systems != 2 {
		t.Fatal("re-request duplicated a system")
	}
}

func TestNilSafety(t *testing.T) {
	var e *Engine
	e.Evaluate(1, time.Second)
	if e.Evaluations() != 0 || e.Warns() != 0 || e.Pages() != 0 || e.Transitions() != 0 {
		t.Fatal("nil engine leaked counters")
	}
	if st := e.Status(); st.ActiveWarns != 0 || st.ActivePages != 0 {
		t.Fatal("nil engine active")
	}

	var s *Set
	if s.Engine("x", tsdb.NewStore(tsdb.Config{Capacity: 4})) != nil {
		t.Fatal("nil set produced engine")
	}
	if s.Totals() != (Totals{}) || s.Status() != nil {
		t.Fatal("nil set leaked state")
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil || buf.Len() == 0 {
		t.Fatalf("nil set WriteJSON: %v (%d bytes)", err, buf.Len())
	}
	if NewSet(nil) != nil {
		t.Fatal("empty NewSet should be nil")
	}
	if NewEngine("x", nil, nil) != nil {
		t.Fatal("empty NewEngine should be nil")
	}
}
