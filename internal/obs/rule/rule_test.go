package rule

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"waflfs/internal/obs/tsdb"
)

func TestRingKeepsNewestOldestFirst(t *testing.T) {
	r := MakeRing[int](3)
	if r.Snapshot() != nil {
		t.Fatal("empty ring snapshot is not nil")
	}
	for i := 1; i <= 5; i++ {
		if slot := r.Push(i); *slot != i {
			t.Fatalf("Push(%d) returned a slot holding %d", i, *slot)
		}
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, []int{3, 4, 5}) || r.Dropped != 2 {
		t.Fatalf("snapshot %v dropped %d, want [3 4 5] 2", got, r.Dropped)
	}
	// The zero ring is bounded at LogCap.
	var z Ring[int]
	for i := 0; i < LogCap+2; i++ {
		z.Push(i)
	}
	if got := z.Snapshot(); len(got) != LogCap || got[0] != 2 || got[LogCap-1] != LogCap+1 {
		t.Fatalf("zero ring holds %d entries, %d..%d", len(got), got[0], got[len(got)-1])
	}
}

func TestKeyed(t *testing.T) {
	var k Keyed[int]
	made := 0
	create := func(v int) func() int { return func() int { made++; return v } }
	if k.Ensure("b", nil, create(2)) != 2 || k.Ensure("a", nil, create(1)) != 1 || k.Ensure("b", nil, create(9)) != 2 {
		t.Fatal("get-or-create did not hold the first value")
	}
	if k.Ensure("b", func(v int) bool { return v != 2 }, create(3)) != 3 || made != 3 {
		t.Fatalf("a turned-down value was not replaced (made %d)", made)
	}
	if got := k.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("names %v", got)
	}
	if v, ok := k.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if n := k.Sum(func(v int) uint64 { return uint64(v) }); n != 4 {
		t.Fatalf("sum %d", n)
	}
	var none *Keyed[int]
	if none.Ensure("x", nil, create(1)) != 0 || none.Names() != nil || none.Sum(nil) != 0 || made != 3 {
		t.Fatal("nil registry is not inert")
	}
	if _, ok := none.Get("x"); ok {
		t.Fatal("nil registry holds a value")
	}
}

type toyState = State[toyNames]

type toyNames struct{}

func (toyNames) Names() [3]string { return [3]string{"ok", "mid", "top"} }

type toyInst struct{ Inst[toyState] }

type toyEngine struct {
	Core[toyState, *toyInst]
}

type toyTotals struct{ Systems, Instances int }

func (e *toyEngine) AddTo(t *toyTotals) { t.Systems++; t.Instances += len(e.Insts) }
func (e *toyEngine) Status() string     { return e.Sys }

func toyInsts(names ...string) []*toyInst {
	var out []*toyInst
	for _, n := range names {
		in := &toyInst{}
		in.Name = n
		out = append(out, in)
	}
	return out
}

func TestStateNamesAndJSON(t *testing.T) {
	for s, want := range map[toyState]string{0: "ok", 1: "mid", 2: "top", 7: "ok", -1: "ok"} {
		if s.String() != want {
			t.Errorf("State(%d) = %q, want %q", int(s), s, want)
		}
	}
	if b, err := toyState(2).MarshalJSON(); err != nil || string(b) != `"top"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
}

func TestCoreAdoptCarriesStateByName(t *testing.T) {
	store := tsdb.NewStore(tsdb.Config{Capacity: 8})
	var e toyEngine
	e.Init("sys", store)
	if !e.Stale() {
		t.Fatal("a fresh engine must expand before its first evaluation")
	}
	e.Adopt(toyInsts("b", "a"))
	if e.Stale() || e.Insts[0].Name != "a" {
		t.Fatalf("adopt: stale %v, first %q", e.Stale(), e.Insts[0].Name)
	}
	tr := e.Transit(e.Insts[1], 4, time.Second, 2)
	tr.ExemplarTrace = 77
	e.Insts[1].Streak, e.Insts[1].Calm = 3, 1
	if e.CountAt(2) != 1 || e.Trans != 1 {
		t.Fatalf("after transit: %d at top, %d transitions", e.CountAt(2), e.Trans)
	}
	store.Observe("sys.x", 1, time.Second, 1)
	if !e.Stale() {
		t.Fatal("a new series did not make the instance list stale")
	}
	e.Adopt(toyInsts("c", "b"))
	b := e.Insts[0]
	if b.Name != "b" || b.State != 2 || b.SinceCP != 4 || b.Streak != 3 || b.Calm != 1 {
		t.Fatalf("b lost its state across the expansion: %+v", b.Inst)
	}
	if c := e.Insts[1]; c.Name != "c" || c.State != 0 {
		t.Fatalf("c did not start calm: %+v", c.Inst)
	}
	want := []Transition[toyState]{{CP: 4, At: time.Second, Instance: "b", From: 0, To: 2, ExemplarTrace: 77}}
	if got := e.TransitionLog(); !reflect.DeepEqual(got, want) {
		t.Fatalf("log %+v, want %+v", got, want)
	}
}

type fixedExemplar struct{ space string }

func (f fixedExemplar) Exemplar(space string) (uint64, uint64, bool) {
	return 5, 6, space == f.space
}

func TestCoreExemplarAndNilSafety(t *testing.T) {
	var e toyEngine
	e.Init("sys", tsdb.NewStore(tsdb.Config{Capacity: 8}))
	if id, lat := e.Exemplar("vol.a"); id != 0 || lat != 0 {
		t.Fatal("exemplar without a source")
	}
	e.SetExemplarSource(fixedExemplar{"sys.vol.a"})
	if id, lat := e.Exemplar("vol.a"); id != 5 || lat != 6 {
		t.Fatalf("exemplar = %d, %d", id, lat)
	}
	if id, _ := e.Exemplar("vol.b"); id != 0 {
		t.Fatal("exemplar for a space the source does not know")
	}
	if id, _ := e.Exemplar(""); id != 0 {
		t.Fatal("exemplar for an instance without a space")
	}
	var none *Core[toyState, *toyInst]
	none.SetExemplarSource(nil)
	if none.Read(func() uint64 { return 1 }) != 0 || e.Read(func() uint64 { return 1 }) != 1 {
		t.Fatal("Read")
	}
}

func TestSetLifecycle(t *testing.T) {
	created := 0
	set := NewSet[string, *toyEngine, toyTotals, string]([]string{"r"},
		func(sys string, rules []string, store *tsdb.Store) *toyEngine {
			created++
			e := &toyEngine{}
			e.Init(sys, store)
			e.Adopt(toyInsts(rules...))
			return e
		})
	s1, s2 := tsdb.NewStore(tsdb.Config{Capacity: 4}), tsdb.NewStore(tsdb.Config{Capacity: 4})
	b := set.Engine("b", s1)
	a := set.Engine("a", s1)
	if set.Engine("b", s1) != b || created != 2 {
		t.Fatalf("re-arming on the same store built %d engines, want 2", created)
	}
	if set.Engine("b", s2) == b || created != 3 {
		t.Fatal("a different store must replace the engine")
	}
	if set.Engine("c", nil) != nil || created != 3 {
		t.Fatal("no store, no engine")
	}
	if got := set.Status(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("status %v, want sorted by system", got)
	}
	if tot := set.Totals(); tot != (toyTotals{2, 2}) {
		t.Fatalf("totals %+v", tot)
	}
	if tot := set.TotalsWhere(func(sys string) bool { return sys == "a" }); tot != (toyTotals{1, 1}) || a == nil {
		t.Fatalf("filtered totals %+v", tot)
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil || !strings.Contains(buf.String(), `"systems": [
    "a",
    "b"
  ]`) {
		t.Fatalf("WriteJSON: %v\n%s", err, buf.String())
	}

	var none *Set[string, *toyEngine, toyTotals, string]
	if NewSet[string, *toyEngine, toyTotals, string](nil, nil) != nil || none.Engine("a", s1) != nil ||
		none.Totals() != (toyTotals{}) || none.Status() != nil {
		t.Fatal("nil set is not inert")
	}
	buf.Reset()
	if err := none.WriteJSON(&buf); err != nil || !strings.Contains(buf.String(), `"systems": []`) {
		t.Fatalf("nil WriteJSON: %v\n%s", err, buf.String())
	}
}
