package faultinject

import (
	"reflect"
	"testing"
	"time"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("phase=topaa_groups,fault=torn,cp=2,seed=7,target=rg0,devreaderr=100")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	want := Plan{
		Seed:               7,
		CrashPhase:         PhaseTopAAGroups,
		CrashCP:            2,
		Fault:              FaultTorn,
		Target:             "rg0",
		DeviceReadErrEvery: 100,
	}
	if p != want {
		t.Fatalf("ParsePlan = %+v, want %+v", p, want)
	}
	if _, err := ParsePlan("phase=bogus"); err == nil {
		t.Fatal("unknown phase accepted")
	}
	if _, err := ParsePlan("fault=bogus"); err == nil {
		t.Fatal("unknown fault accepted")
	}
	if _, err := ParsePlan("nonsense"); err == nil {
		t.Fatal("malformed element accepted")
	}
	if _, err := ParsePlan("color=red"); err == nil {
		t.Fatal("unknown key accepted")
	}
	empty, err := ParsePlan("")
	if err != nil || empty != (Plan{}) {
		t.Fatalf("empty spec = %+v, %v", empty, err)
	}
	// A negative CP ordinal can never match, so the plan would arm a crash
	// that never fires; a repeated key used to let the last one win.
	for _, bad := range []string{"phase=alloc,cp=-3", "cp=1,cp=2"} {
		if p, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) accepted: %+v", bad, p)
		}
	}
	// The shared splitter's leniencies: a trailing comma, blanks around '='.
	for in, want := range map[string]Plan{
		"phase=alloc,":        {CrashPhase: PhaseAlloc},
		"fault = torn":        {Fault: FaultTorn},
		" cp = 0 , seed = -4": {Seed: -4},
	} {
		if got, err := ParsePlan(in); err != nil || got != want {
			t.Fatalf("ParsePlan(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	// Canonical form: pinned, and parse∘format is the identity.
	const canon = "phase=topaa_groups,fault=torn,cp=2,seed=7,target=rg0,devreaderr=100"
	if got := p.String(); got != canon {
		t.Fatalf("String() = %q, want %q", got, canon)
	}
	for _, plan := range []Plan{p, {}, {Fault: FaultReadErrHard, Target: "a=b"}} {
		if rt, err := ParsePlan(plan.String()); err != nil || rt != plan {
			t.Fatalf("plan %q did not round trip: %+v, %v", plan, rt, err)
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	in.BeginCP()
	in.EnterPhase(PhaseFlush)
	if in.Crashed() || in.Crashes() != 0 {
		t.Fatal("nil injector crashed")
	}
	if d := in.OnSave("x", 8); d != (SaveDecision{}) {
		t.Fatalf("nil OnSave = %+v", d)
	}
	rep, err := in.ApplyDamage(nil, nil, 8)
	if err != nil || rep.Target != "" {
		t.Fatalf("nil ApplyDamage = %+v, %v", rep, err)
	}
	in.Recover()
	if in.Plan() != (Plan{}) {
		t.Fatal("nil Plan not zero")
	}
}

func TestCrashFiresAtPhaseAndCP(t *testing.T) {
	in := New(Plan{CrashPhase: PhaseTopAAGroups, CrashCP: 2, Fault: FaultNone})

	in.BeginCP() // CP 1
	in.EnterPhase(PhaseTopAAGroups)
	if in.Crashed() {
		t.Fatal("crashed on wrong CP")
	}
	if d := in.OnSave("rg0", 8); d.Drop || d.TornChunks != 0 {
		t.Fatalf("pre-crash save affected: %+v", d)
	}

	in.BeginCP() // CP 2
	in.EnterPhase(PhaseFlush)
	if in.Crashed() {
		t.Fatal("crashed on wrong phase")
	}
	in.EnterPhase(PhaseTopAAGroups)
	if !in.Crashed() {
		t.Fatal("did not crash at armed phase/CP")
	}
	if d := in.OnSave("rg0", 8); !d.Drop {
		t.Fatalf("post-crash save not dropped: %+v", d)
	}

	in.Recover()
	if in.Crashed() {
		t.Fatal("still crashed after Recover")
	}
	in.BeginCP() // CP 3
	in.EnterPhase(PhaseTopAAGroups)
	if in.Crashed() {
		t.Fatal("re-crashed after Recover with CrashCP pinned")
	}
	if in.Crashes() != 1 {
		t.Fatalf("Crashes = %d, want 1", in.Crashes())
	}
}

func TestTornFirstSaveThenDrop(t *testing.T) {
	in := New(Plan{Seed: 3, CrashPhase: PhaseFlush, CrashCP: 1, Fault: FaultTorn})
	in.BeginCP()
	in.EnterPhase(PhaseFlush)
	d := in.OnSave("rg0", 8)
	if d.Drop || d.TornChunks < 1 || d.TornChunks > 7 {
		t.Fatalf("first post-crash save = %+v, want torn in [1,7]", d)
	}
	if d2 := in.OnSave("rg1", 8); !d2.Drop {
		t.Fatalf("second post-crash save = %+v, want drop", d2)
	}
	// A single-chunk write cannot tear: it drops instead.
	in2 := New(Plan{Seed: 3, CrashPhase: PhaseFlush, CrashCP: 1, Fault: FaultTorn})
	in2.BeginCP()
	in2.EnterPhase(PhaseFlush)
	if d := in2.OnSave("tiny", 1); !d.Drop {
		t.Fatalf("single-chunk torn save = %+v, want drop", d)
	}
}

// fakeSurface records damage calls for ApplyDamage tests.
type fakeSurface struct {
	blocks  map[string]int
	corrupt [][3]interface{}
	unread  [][3]interface{}
	parity  []string
}

func (f *fakeSurface) BlockCount(name string) int { return f.blocks[name] }
func (f *fakeSurface) CorruptChunk(name string, blk, chunk int) error {
	f.corrupt = append(f.corrupt, [3]interface{}{name, blk, chunk})
	return nil
}
func (f *fakeSurface) MarkChunkUnreadable(name string, blk, chunk int) error {
	f.unread = append(f.unread, [3]interface{}{name, blk, chunk})
	return nil
}
func (f *fakeSurface) MarkParityUnreadable(name string, blk int) error {
	f.parity = append(f.parity, name)
	return nil
}

func TestApplyDamageKinds(t *testing.T) {
	keys := []string{"rg0", "rg1", "v"}
	mk := func(kind Kind) (*fakeSurface, DamageReport) {
		fs := &fakeSurface{blocks: map[string]int{"rg0": 1, "rg1": 1, "v": 3}}
		in := New(Plan{Seed: 11, Fault: kind})
		rep, err := in.ApplyDamage(fs, keys, 8)
		if err != nil {
			t.Fatalf("%v: ApplyDamage: %v", kind, err)
		}
		return fs, rep
	}

	if fs, rep := mk(FaultNone); rep.Target != "" || len(fs.corrupt)+len(fs.unread) != 0 {
		t.Fatalf("FaultNone damaged: %+v", rep)
	}
	if fs, rep := mk(FaultBitRot); len(fs.corrupt) != 1 || len(rep.Chunks) != 1 {
		t.Fatalf("FaultBitRot: %+v / %+v", fs.corrupt, rep)
	}
	fs, rep := mk(FaultBitRotMulti)
	if len(fs.corrupt) != 2 || len(rep.Chunks) != 2 || rep.Chunks[0] == rep.Chunks[1] {
		t.Fatalf("FaultBitRotMulti: %+v / %+v", fs.corrupt, rep)
	}
	if fs, rep := mk(FaultReadErr); len(fs.unread) != 1 || rep.Parity {
		t.Fatalf("FaultReadErr: %+v / %+v", fs.unread, rep)
	}
	if fs, rep := mk(FaultReadErrHard); len(fs.unread) != 1 || len(fs.parity) != 1 || !rep.Parity {
		t.Fatalf("FaultReadErrHard: %+v / %+v", fs, rep)
	}
}

func TestApplyDamageDeterministic(t *testing.T) {
	keys := []string{"rg0", "rg1", "v"}
	run := func() DamageReport {
		fs := &fakeSurface{blocks: map[string]int{"rg0": 2, "rg1": 2, "v": 4}}
		in := New(Plan{Seed: 99, Fault: FaultBitRot})
		rep, err := in.ApplyDamage(fs, keys, 8)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic damage: %+v vs %+v", a, b)
	}
}

func TestApplyDamageTargetOverride(t *testing.T) {
	fs := &fakeSurface{blocks: map[string]int{"rg0": 1, "v": 2}}
	in := New(Plan{Seed: 1, Fault: FaultBitRot, Target: "v"})
	rep, err := in.ApplyDamage(fs, []string{"rg0", "v"}, 8)
	if err != nil || rep.Target != "v" {
		t.Fatalf("target override: %+v, %v", rep, err)
	}
	// Missing target errors instead of damaging something else.
	in2 := New(Plan{Seed: 1, Fault: FaultBitRot, Target: "ghost"})
	if _, err := in2.ApplyDamage(fs, []string{"rg0"}, 8); err == nil {
		t.Fatal("missing damage target accepted")
	}
}

func TestPlanDevicePenaltyField(t *testing.T) {
	p := Plan{DeviceReadErrEvery: 10, DeviceReadPenalty: 3 * time.Millisecond}
	in := New(p)
	if in.Plan() != p {
		t.Fatalf("Plan() = %+v, want %+v", in.Plan(), p)
	}
}
