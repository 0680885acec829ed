package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestNilSafeInstruments(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(5)
	c.Inc()
	c.AddDuration(time.Second)
	g.Set(3)
	g.Add(1)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Value().Count != 0 {
		t.Fatal("nil instruments must read zero")
	}
}

func TestRegistryIdempotentAndSorted(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("b.ops")
	c2 := r.Counter("b.ops")
	if c1 != c2 {
		t.Fatal("re-registering a counter must return the same instrument")
	}
	c1.Add(7)
	r.Gauge("a.depth").Set(-2)
	r.Histogram("c.lat", []uint64{10, 100}).Observe(42)
	r.CounterFunc("a.derived", func() uint64 { return 11 })

	snap := r.Snapshot()
	var names []string
	for _, m := range snap.Metrics {
		names = append(names, m.Name)
	}
	want := []string{"a.depth", "a.derived", "b.ops", "c.lat"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("snapshot order = %v, want %v", names, want)
	}
	if v := snap.Counter("b.ops"); v != 7 {
		t.Fatalf("b.ops = %d, want 7", v)
	}
	if v := snap.Counter("a.derived"); v != 11 {
		t.Fatalf("a.derived = %d, want 11", v)
	}
	if m, ok := snap.Get("a.depth"); !ok || m.Gauge != -2 {
		t.Fatalf("a.depth = %+v, want gauge -2", m)
	}
	if m, ok := snap.Get("c.lat"); !ok || m.Hist.Count != 1 || m.Hist.Counts[1] != 1 {
		t.Fatalf("c.lat = %+v, want one sample in bucket le=100", m)
	}
	if _, ok := snap.Get("missing"); ok {
		t.Fatal("Get must miss on absent names")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("x")
}

func TestStableSnapshotExcludesVolatile(t *testing.T) {
	r := NewRegistry()
	r.Counter("stable").Add(1)
	r.VolatileCounter("wall").Add(99)
	r.VolatileCounterFunc("wall2", func() uint64 { return 5 })
	full, stable := r.Snapshot(), r.StableSnapshot()
	if len(full.Metrics) != 3 || len(stable.Metrics) != 1 {
		t.Fatalf("full=%d stable=%d, want 3/1", len(full.Metrics), len(stable.Metrics))
	}
	if stable.Metrics[0].Name != "stable" {
		t.Fatalf("stable snapshot kept %q", stable.Metrics[0].Name)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	for _, v := range []uint64{0, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	hv := h.Value()
	wantCounts := []uint64{2, 2, 0, 1} // le=10: {0,10}; le=100: {11,100}; le=1000: {}; +Inf: {5000}
	if !reflect.DeepEqual(hv.Counts, wantCounts) {
		t.Fatalf("counts = %v, want %v", hv.Counts, wantCounts)
	}
	if hv.Sum != 5121 || hv.Count != 5 {
		t.Fatalf("sum/count = %d/%d, want 5121/5", hv.Sum, hv.Count)
	}
}

func TestMirrorSharesInstruments(t *testing.T) {
	export := NewRegistry()
	priv := NewRegistry()
	priv.MirrorTo(export, "arm1.")
	c := priv.Counter("ops") // registered after MirrorTo
	priv.MirrorTo(export, "arm1.")
	c.Add(3)

	if v, ok := export.Value("arm1.ops"); !ok || v != 3 {
		t.Fatalf("export arm1.ops = %d,%v, want 3,true", v, ok)
	}
	// A second MirrorTo must not have double-registered: the duplicate alias
	// gets a deterministic suffix, and the original keeps reading through.
	c.Add(1)
	if v, _ := export.Value("arm1.ops"); v != 4 {
		t.Fatalf("export arm1.ops = %d, want 4 (shared instrument)", v)
	}

	// Pre-existing entries are mirrored too.
	priv2 := NewRegistry()
	c2 := priv2.Counter("ops")
	c2.Add(9)
	priv2.MirrorTo(export, "arm2.")
	if v, ok := export.Value("arm2.ops"); !ok || v != 9 {
		t.Fatalf("export arm2.ops = %d,%v, want 9,true", v, ok)
	}
}

func TestValueLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(2)
	if v, ok := r.Value("hits"); !ok || v != 2 {
		t.Fatalf("Value(hits) = %d,%v", v, ok)
	}
	if _, ok := r.Value("absent"); ok {
		t.Fatal("Value must miss on absent names")
	}
}

// Snapshots read a slice kept in name order by insertion; whatever the
// registration order, with aliases (suffixed ones too) arriving in between and
// names re-registered, they must list what sorting the entries would.
func TestRegistrySnapshotOrderedByConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	export, priv := NewRegistry(), NewRegistry()
	priv.Counter("pre.b")
	priv.Gauge("pre.a")
	priv.MirrorTo(export, "sys.")
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("m%03d", rng.Intn(200))
		r := []*Registry{priv, export}[rng.Intn(2)]
		switch _, taken := r.entries[name]; {
		case taken:
			r.Value(name)
		case i%5 == 0:
			r.VolatileCounter(name)
		case i%5 == 1:
			r.Histogram(name, []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024})
		case i%5 == 2:
			r.GaugeFunc(name, func() int64 { return 1 })
		default:
			r.Counter(name)
		}
	}
	priv.MirrorTo(export, "sys.") // every alias again, under "#2" names
	for _, r := range []*Registry{priv, export} {
		var all, stable []string
		for name, e := range r.entries {
			all = append(all, name)
			if !e.volatile {
				stable = append(stable, name)
			}
		}
		sort.Strings(all)
		sort.Strings(stable)
		names := func(s Snapshot) []string {
			var out []string
			for _, m := range s.Metrics {
				out = append(out, m.Name)
			}
			return out
		}
		if got := names(r.Snapshot()); !reflect.DeepEqual(got, all) {
			t.Fatalf("Snapshot lists %v, want %v", got, all)
		}
		if got := names(r.StableSnapshot()); !reflect.DeepEqual(got, stable) || len(stable) == len(all) {
			t.Fatalf("StableSnapshot lists %v, want %v", got, stable)
		}
	}
	if _, ok := export.Value("sys.pre.a#2"); !ok {
		t.Fatal("the second mirror pass made no suffixed alias")
	}
}
