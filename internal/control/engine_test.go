package control

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"waflfs/internal/obs/tsdb"
)

// fakeActuator is an in-memory knob surface with the same clamp semantics
// as wafl's: SetKnob stores the pre-clamped value the engine hands it.
type fakeActuator struct {
	specs  []KnobSpec
	vals   map[string]float64
	reject map[string]bool
	sets   []string
}

func newFakeActuator() *fakeActuator {
	return &fakeActuator{
		specs: []KnobSpec{
			{Name: KnobAllocBatch, Min: 1, Max: 1024, MaxStep: 64},
			{Name: KnobDelayedBudget, Min: 0, Max: 1 << 20, MaxStep: 1 << 16},
			{Name: KnobFragEvery, Min: 1, Max: 1024, MaxStep: 16},
		},
		vals: map[string]float64{
			KnobAllocBatch:    8,
			KnobDelayedBudget: 8192,
			KnobFragEvery:     1,
		},
		reject: map[string]bool{},
	}
}

func (a *fakeActuator) Knobs() []KnobSpec { return append([]KnobSpec(nil), a.specs...) }

func (a *fakeActuator) Knob(name string) (float64, bool) {
	v, ok := a.vals[name]
	return v, ok
}

func (a *fakeActuator) SetKnob(name string, v float64) (float64, bool) {
	if a.reject[name] {
		return a.vals[name], false
	}
	if _, ok := a.vals[name]; !ok {
		return 0, false
	}
	a.vals[name] = v
	a.sets = append(a.sets, name)
	return v, true
}

func testStore() *tsdb.Store { return tsdb.NewStore(tsdb.Config{Capacity: 64}) }

const ms = time.Millisecond

// drive observes the signal value then evaluates, like the CP tail does.
func drive(e *Engine, store *tsdb.Store, series string, cp uint64, v float64) {
	store.Observe(series, cp, time.Duration(cp)*ms, v)
	e.Evaluate(cp, time.Duration(cp)*ms)
}

func TestEngineHysteresisAndActuation(t *testing.T) {
	store := testStore()
	act := newFakeActuator()
	pols, err := ParsePolicies(
		"name=shed,signal=slo.latency.vol.*.burn_fast,value=2,hold=3,action=delayed_budget,step=-50%,min=512")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine("w", pols, store, act)
	series := "w.slo.latency.vol.v0.burn_fast"

	// Signal below threshold: instance materializes, stays ok, no actuation.
	drive(e, store, series, 1, 1.0)
	st := e.Status()
	if len(st.Instances) != 1 || st.Instances[0].Name != "shed.v0" {
		t.Fatalf("instances: %+v", st.Instances)
	}
	if st.Instances[0].State != "ok" || e.Actuations() != 0 {
		t.Fatalf("unexpected early actuation: %+v", st)
	}

	// Two breaches: armed but held.
	drive(e, store, series, 2, 3.0)
	drive(e, store, series, 3, 3.0)
	if s := e.Status().Instances[0].State; s != "armed" {
		t.Fatalf("state after 2 breaches = %s", s)
	}
	if e.Actuations() != 0 {
		t.Fatal("actuated before hold satisfied")
	}

	// Third consecutive breach fires: 8192 → 4096.
	drive(e, store, series, 4, 3.0)
	if e.Actuations() != 1 || act.vals[KnobDelayedBudget] != 4096 {
		t.Fatalf("acts=%d budget=%v", e.Actuations(), act.vals[KnobDelayedBudget])
	}
	if s := e.Status().Instances[0].State; s != "acted" {
		t.Fatalf("state after fire = %s", s)
	}

	// Re-fires are rate-limited to one per Hold breaches.
	drive(e, store, series, 5, 3.0)
	drive(e, store, series, 6, 3.0)
	if e.Actuations() != 1 {
		t.Fatalf("refired too early: %d", e.Actuations())
	}
	drive(e, store, series, 7, 3.0)
	if e.Actuations() != 2 || act.vals[KnobDelayedBudget] != 2048 {
		t.Fatalf("acts=%d budget=%v", e.Actuations(), act.vals[KnobDelayedBudget])
	}

	// Calm evaluations step back down one level per Hold.
	for cp := uint64(8); cp <= 10; cp++ {
		drive(e, store, series, cp, 0.5)
	}
	if s := e.Status().Instances[0].State; s != "armed" {
		t.Fatalf("state after hold calm = %s", s)
	}
	for cp := uint64(11); cp <= 13; cp++ {
		drive(e, store, series, cp, 0.5)
	}
	if s := e.Status().Instances[0].State; s != "ok" {
		t.Fatalf("state after 2x hold calm = %s", s)
	}

	// Decision provenance: records carry the canonical clause and knob move.
	recs := e.Status().Records
	if len(recs) != 2 || !recs[0].Fired || recs[0].Old != 8192 || recs[0].New != 4096 {
		t.Fatalf("records: %+v", recs)
	}
	if !strings.HasPrefix(recs[0].Policy, "name=shed,") || recs[0].Reason != "applied" {
		t.Fatalf("record provenance: %+v", recs[0])
	}

	// State/signal/knob series were written back into the store.
	for _, name := range []string{
		"w.control.shed.v0.state", "w.control.shed.v0.signal", "w.control.knob.delayed_budget",
	} {
		if _, ok := store.ValueAt(name, 7); !ok {
			t.Fatalf("missing series %s", name)
		}
	}
	if v, _ := store.ValueAt("w.control.knob.delayed_budget", 7); v != 2048 {
		t.Fatalf("knob series at cp7 = %v", v)
	}
}

func TestEngineClampsAndSuppression(t *testing.T) {
	store := testStore()
	act := newFakeActuator()
	act.vals[KnobDelayedBudget] = 600
	pols, _ := ParsePolicies(
		"name=shed,signal=x.sig,value=1,hold=1,action=delayed_budget,step=-50%,min=512")
	e := NewEngine("w", pols, store, act)

	// 600 → 300 clamps to the policy floor 512.
	drive(e, store, "w.x.sig", 1, 5)
	if act.vals[KnobDelayedBudget] != 512 {
		t.Fatalf("budget = %v, want 512", act.vals[KnobDelayedBudget])
	}
	// At the floor the target equals the current value: suppressed, with a
	// provenance record saying why.
	drive(e, store, "w.x.sig", 2, 5)
	if e.Actuations() != 1 || e.Suppressed() != 1 {
		t.Fatalf("acts=%d suppr=%d", e.Actuations(), e.Suppressed())
	}
	recs := e.Status().Records
	last := recs[len(recs)-1]
	if last.Fired || last.Reason != "clamped" || last.Old != 512 || last.New != 512 {
		t.Fatalf("suppressed record: %+v", last)
	}

	// MaxStep bounds a single move: +1000 on alloc_batch moves only 64.
	pols2, _ := ParsePolicies("name=grow,signal=x.sig,value=1,hold=1,action=alloc_batch,step=+1000")
	act2 := newFakeActuator()
	e2 := NewEngine("w", pols2, store, act2)
	e2.Evaluate(3, 3*ms)
	if act2.vals[KnobAllocBatch] != 72 {
		t.Fatalf("alloc_batch = %v, want 72", act2.vals[KnobAllocBatch])
	}

	// Rejected SetKnob is a suppressed decision, not a fire.
	act3 := newFakeActuator()
	act3.reject[KnobAllocBatch] = true
	e3 := NewEngine("w", pols2, store, act3)
	e3.Evaluate(4, 4*ms)
	if e3.Actuations() != 0 || e3.Suppressed() != 1 {
		t.Fatalf("rejected: acts=%d suppr=%d", e3.Actuations(), e3.Suppressed())
	}
	recs3 := e3.Status().Records
	if recs3[len(recs3)-1].Reason != "rejected" {
		t.Fatalf("reject record: %+v", recs3[len(recs3)-1])
	}

	// A policy naming a knob the actuator lacks suppresses with no_knob.
	pols4, _ := ParsePolicies("name=k,signal=x.sig,value=1,hold=1,action=scrub_kick,step=+1")
	e4 := NewEngine("w", pols4, store, newFakeActuator()) // fake has no scrub_kick
	e4.Evaluate(5, 5*ms)
	recs4 := e4.Status().Records
	if len(recs4) != 1 || recs4[0].Reason != "no_knob" {
		t.Fatalf("no_knob record: %+v", recs4)
	}
}

func TestEngineWildcardExpansion(t *testing.T) {
	store := testStore()
	act := newFakeActuator()
	pols, _ := ParsePolicies("name=p,signal=slo.latency.vol.*.state,value=0.5,hold=2,action=alloc_batch,step=+8,max=64")
	e := NewEngine("w", pols, store, act)

	store.Observe("w.slo.latency.vol.a.state", 1, 1*ms, 1)
	e.Evaluate(1, 1*ms)
	if n := len(e.Status().Instances); n != 1 {
		t.Fatalf("instances = %d", n)
	}
	// A new matching series appears: expansion picks it up and preserves the
	// first instance's armed state (streak survives by name).
	store.Observe("w.slo.latency.vol.a.state", 2, 2*ms, 1)
	store.Observe("w.slo.latency.vol.b.state", 2, 2*ms, 0)
	e.Evaluate(2, 2*ms)
	st := e.Status()
	if len(st.Instances) != 2 || st.Instances[0].Name != "p.a" || st.Instances[1].Name != "p.b" {
		t.Fatalf("instances: %+v", st.Instances)
	}
	// Instance a breached at cp1 and cp2 — hold=2 satisfied across the
	// expansion, so the knob fired exactly once.
	if e.Actuations() != 1 || act.vals[KnobAllocBatch] != 16 {
		t.Fatalf("acts=%d batch=%v", e.Actuations(), act.vals[KnobAllocBatch])
	}
	if st.Instances[1].State != "ok" {
		t.Fatalf("instance b: %+v", st.Instances[1])
	}
}

func TestEngineFlapDetection(t *testing.T) {
	store := testStore()
	act := newFakeActuator()
	// hold=1 with an oscillating signal is the worst case the hysteresis
	// can't damp: armed→acted→armed→acted with no ok between.
	pols, _ := ParsePolicies("name=f,signal=x.sig,value=1,hold=1,action=alloc_batch,step=+8")
	e := NewEngine("w", pols, store, act)
	vals := []float64{5, 0, 5, 0, 5, 0, 5}
	for i, v := range vals {
		drive(e, store, "w.x.sig", uint64(i+1), v)
	}
	st := e.Status()
	if !st.Instances[0].Flapping || !st.Flapping() {
		t.Fatalf("flap not detected: %+v", st.Instances[0])
	}

	// A monotone breach-then-calm history is not a flap.
	store2 := testStore()
	e2 := NewEngine("w", pols, store2, newFakeActuator())
	for i, v := range []float64{5, 5, 5, 0, 0, 0, 0} {
		drive(e2, store2, "w.x.sig", uint64(i+1), v)
	}
	if e2.Status().Flapping() {
		t.Fatal("monotone history flagged as flap")
	}
}

func TestSetTotalsAndWriteJSON(t *testing.T) {
	set := NewSet(DefaultPolicies())
	if set == nil {
		t.Fatal("nil set")
	}
	storeA, storeB := testStore(), testStore()
	ea := Bind(set, "a", storeA, newFakeActuator())
	eb := Bind(set, "b", storeB, newFakeActuator())
	if ea == nil || eb == nil {
		t.Fatal("nil engines")
	}
	// Same sys+store rebinds, preserving the engine.
	if again := Bind(set, "a", storeA, newFakeActuator()); again != ea {
		t.Fatal("re-arm replaced engine despite same store")
	}
	ea.Evaluate(1, 1*ms)
	eb.Evaluate(1, 1*ms)
	tot := set.Totals()
	if tot.Systems != 2 {
		t.Fatalf("totals: %+v", tot)
	}
	if only := set.TotalsWhere(func(s string) bool { return s == "a" }); only.Systems != 1 {
		t.Fatalf("filtered totals: %+v", only)
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"totals"`, `"systems"`, `"evaluations"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteJSON missing %s:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	if err := set.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("WriteJSON not deterministic")
	}
	// Nil set still writes a valid document.
	var nilBuf bytes.Buffer
	if err := (*Set)(nil).WriteJSON(&nilBuf); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNilSafety(t *testing.T) {
	var e *Engine
	e.Evaluate(1, 1*ms)
	e.SetExemplarSource(nil)
	e.setActuator(nil)
	if e.Evaluations()+e.Actuations()+e.Suppressed()+e.Transitions() != 0 {
		t.Fatal("nil engine counted")
	}
	if st := e.Status(); st.System != "" {
		t.Fatalf("nil status: %+v", st)
	}
	if NewEngine("w", nil, testStore(), newFakeActuator()) != nil {
		t.Fatal("engine with no policies")
	}
	var s *Set
	if Bind(s, "w", testStore(), newFakeActuator()) != nil {
		t.Fatal("nil set produced engine")
	}
	if tot := s.Totals(); tot.Systems != 0 {
		t.Fatal("nil set totals")
	}
}
