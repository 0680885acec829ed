package tsdb

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
	"time"

	"waflfs/internal/obs"
)

func TestObserveBelowCapacityKeepsFullResolution(t *testing.T) {
	s := NewStore(Config{Capacity: 8})
	for cp := uint64(1); cp <= 5; cp++ {
		s.Observe("x", cp, time.Duration(cp), float64(cp*10))
	}
	pts := s.Points("x")
	if len(pts) != 5 {
		t.Fatalf("len = %d, want 5", len(pts))
	}
	for i, p := range pts {
		cp := uint64(i + 1)
		want := Point{CPFirst: cp, CPLast: cp, At: time.Duration(cp),
			Min: float64(cp * 10), Max: float64(cp * 10), Sum: float64(cp * 10), Count: 1}
		if p != want {
			t.Errorf("point %d = %+v, want %+v", i, p, want)
		}
	}
}

// Capacity 1 is the degenerate ring: every sample folds into the single
// slot, accumulating min/max/sum/count over the whole run.
func TestCapacityOneFoldsEverything(t *testing.T) {
	s := NewStore(Config{Capacity: 1})
	vals := []float64{7, 3, 9, 5}
	for i, v := range vals {
		s.Observe("x", uint64(i+1), time.Duration(i+1), v)
	}
	pts := s.Points("x")
	if len(pts) != 1 {
		t.Fatalf("len = %d, want 1", len(pts))
	}
	want := Point{CPFirst: 1, CPLast: 4, At: 4, Min: 3, Max: 9, Sum: 24, Count: 4}
	if pts[0] != want {
		t.Fatalf("point = %+v, want %+v", pts[0], want)
	}
}

// An exact-multiple wrap: capacity 4, 8 samples. The first wrap (sample 5)
// folds 1..4 into two points; the second (sample 7) folds again. The final
// structure is fully determined.
func TestExactMultipleWrap(t *testing.T) {
	s := NewStore(Config{Capacity: 4})
	for cp := uint64(1); cp <= 8; cp++ {
		s.Observe("x", cp, time.Duration(cp), float64(cp))
	}
	pts := s.Points("x")
	want := []Point{
		{CPFirst: 1, CPLast: 4, At: 4, Min: 1, Max: 4, Sum: 10, Count: 4},
		{CPFirst: 5, CPLast: 6, At: 6, Min: 5, Max: 6, Sum: 11, Count: 2},
		{CPFirst: 7, CPLast: 7, At: 7, Min: 7, Max: 7, Sum: 7, Count: 1},
		{CPFirst: 8, CPLast: 8, At: 8, Min: 8, Max: 8, Sum: 8, Count: 1},
	}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("points = %+v\nwant %+v", pts, want)
	}
	// No sample is ever lost to a wrap: the counts still cover every CP.
	var n uint64
	for _, p := range pts {
		n += p.Count
	}
	if n != 8 {
		t.Fatalf("folded count = %d, want 8", n)
	}
}

// Odd-capacity wrap exercises the carried unpaired point.
func TestOddCapacityWrapCarriesTail(t *testing.T) {
	s := NewStore(Config{Capacity: 3})
	for cp := uint64(1); cp <= 4; cp++ {
		s.Observe("x", cp, time.Duration(cp), float64(cp))
	}
	want := []Point{
		{CPFirst: 1, CPLast: 2, At: 2, Min: 1, Max: 2, Sum: 3, Count: 2},
		{CPFirst: 3, CPLast: 3, At: 3, Min: 3, Max: 3, Sum: 3, Count: 1},
		{CPFirst: 4, CPLast: 4, At: 4, Min: 4, Max: 4, Sum: 4, Count: 1},
	}
	if got := s.Points("x"); !reflect.DeepEqual(got, want) {
		t.Fatalf("points = %+v\nwant %+v", got, want)
	}
}

// The memory bound: however long the run, a series holds at most Capacity
// points and its backing array never grows past that bound (it is allocated
// lazily, so short-lived series stay small).
func TestMemoryBoundIndependentOfRunLength(t *testing.T) {
	const capacity = 16
	s := NewStore(Config{Capacity: capacity})
	for cp := uint64(1); cp <= 100000; cp++ {
		s.Observe("x", cp, time.Duration(cp), float64(cp%97))
	}
	se := s.series["x"]
	if len(se.pts) > capacity {
		t.Fatalf("series holds %d points, bound is %d", len(se.pts), capacity)
	}
	if got := cap(se.pts); got > capacity {
		t.Fatalf("backing array capacity = %d, bound is %d", got, capacity)
	}
	// Nothing was dropped, only folded.
	var n uint64
	for _, p := range se.pts {
		n += p.Count
	}
	if n != 100000 {
		t.Fatalf("folded count = %d, want 100000", n)
	}
}

func TestSampleRecordsSnapshotKinds(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c").Add(3)
	reg.Gauge("g").Set(-2)
	reg.Histogram("h", []uint64{10, 100}).Observe(7)
	reg.VolatileCounter("vol").Add(99)

	s := NewStore(Config{Capacity: 4})
	s.Sample("arm", 1, 5*time.Nanosecond, reg.StableSnapshot())

	checks := map[string]float64{
		"arm.c":       3,
		"arm.g":       -2,
		"arm.h.sum":   7,
		"arm.h.count": 1,
	}
	for name, want := range checks {
		pts := s.Points(name)
		if len(pts) != 1 || pts[0].Sum != want {
			t.Errorf("%s = %+v, want one point with value %v", name, pts, want)
		}
	}
	if pts := s.Points("arm.vol"); pts != nil {
		t.Errorf("volatile metric sampled: %+v", pts)
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	s.Observe("x", 1, 0, 1)
	s.Sample("arm", 1, 0, obs.Snapshot{})
	if s.NumSeries() != 0 || s.Points("x") != nil || s.SeriesNames() != nil || s.Dump() != nil {
		t.Fatal("nil store leaked state")
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("nil WriteJSON wrote nothing")
	}
}

func TestWriteJSONDeterministicOrder(t *testing.T) {
	build := func(order []string) string {
		s := NewStore(Config{Capacity: 4})
		for i, n := range order {
			s.Observe(n, uint64(i+1), time.Duration(i), float64(i))
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.String()
	}
	a := build([]string{"b", "a", "c"})
	// Same samples, different insertion order — but per-series content must
	// match, so reuse identical (name, cp, value) tuples.
	s := NewStore(Config{Capacity: 4})
	s.Observe("c", 3, 2, 2)
	s.Observe("a", 2, 1, 1)
	s.Observe("b", 1, 0, 0)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if a != buf.String() {
		t.Fatalf("insertion order leaked into JSON:\n%s\nvs\n%s", a, buf.String())
	}
}

// refSample is Sample as it stood before it cached series handles: every
// series name built, and looked up, at every call.
func refSample(s *Store, sys string, cp uint64, at time.Duration, snap obs.Snapshot) {
	for _, m := range snap.Metrics {
		if m.Volatile {
			continue
		}
		name := sys + "." + m.Name
		switch {
		case m.Hist != nil:
			s.Observe(name+".sum", cp, at, float64(m.Hist.Sum))
			s.Observe(name+".count", cp, at, float64(m.Hist.Count))
			if s.histBuckets != nil && s.histBuckets(name) {
				var cum uint64
				for i, b := range m.Hist.Bounds {
					cum += m.Hist.Counts[i]
					s.Observe(name+".le_"+strconv.FormatUint(b, 10), cp, at, float64(cum))
				}
			}
		case m.Kind == obs.KindGauge:
			s.Observe(name, cp, at, float64(m.Gauge))
		default:
			s.Observe(name, cp, at, float64(m.Value))
		}
	}
}

// Sample through cached handles must store what building every name did —
// same series, same points, same JSON — for two systems sharing a store,
// metrics that appear late, folds included, and allocate nothing once every
// pair has been seen and the rings are full.
func TestSampleMatchesReference(t *testing.T) {
	cfg := Config{Capacity: 8, HistBuckets: SuffixFilter(".lat_ns")}
	got, want := NewStore(cfg), NewStore(cfg)
	reg := obs.NewRegistry()
	c, g := reg.Counter("ops"), reg.Gauge("depth")
	lat := reg.Histogram("vol.a.lat_ns", obs.DurationBuckets)
	width := reg.Histogram("fanout", []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024})
	reg.VolatileCounter("slots").Add(7)
	got.Observe("other", 1, 1, 5)
	want.Observe("other", 1, 1, 5)
	for cp := uint64(1); cp <= 40; cp++ {
		c.Add(cp)
		g.Set(int64(cp%5) - 2)
		lat.Observe(cp * 997)
		width.Observe(cp % 9)
		if cp == 20 {
			reg.Counter("late").Add(3)
			reg.Histogram("vol.b.lat_ns", obs.LatencyBuckets).Observe(12345)
		}
		for _, sys := range []string{"arm1", "arm2"} {
			snap := reg.Snapshot() // volatile entries included: Sample skips them
			got.Sample(sys, cp, time.Duration(cp)*time.Millisecond, snap)
			refSample(want, sys, cp, time.Duration(cp)*time.Millisecond, snap)
		}
	}
	if !reflect.DeepEqual(got.Dump(), want.Dump()) {
		t.Fatalf("stores differ:\n got %v\nwant %v", got.SeriesNames(), want.SeriesNames())
	}
	var gotJSON, wantJSON bytes.Buffer
	if err := got.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Fatal("JSON documents differ")
	}
	if got.NumSeries() != 1+2*(2+2+2+len(obs.DurationBuckets)+1+2+len(obs.LatencyBuckets)) {
		t.Fatalf("%d series", got.NumSeries())
	}
	snap := reg.StableSnapshot()
	if allocs := testing.AllocsPerRun(20, func() { got.Sample("arm1", 41, 41, snap) }); allocs != 0 {
		t.Fatalf("Sample allocates %.0f times on known metrics", allocs)
	}
}
