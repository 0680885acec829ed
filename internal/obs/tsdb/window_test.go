package tsdb

import (
	"reflect"
	"testing"
	"time"

	"waflfs/internal/obs"
)

// monotone fills a counter-like series: value cp*10 at each CP 1..n.
func monotone(s *Store, name string, n uint64) {
	for cp := uint64(1); cp <= n; cp++ {
		s.Observe(name, cp, time.Duration(cp), float64(cp*10))
	}
}

// pointRanges lists the CP range of every retained point of a series.
func pointRanges(s *Store, name string) [][2]uint64 {
	var out [][2]uint64
	for _, p := range s.Points(name) {
		out = append(out, [2]uint64{p.CPFirst, p.CPLast})
	}
	return out
}

// Window statistics at full resolution: every CP keeps its own point, so a
// window's counter delta and both of its endpoint values are exact.
func TestWindowStatsFullResolution(t *testing.T) {
	s := NewStore(Config{Capacity: 16})
	monotone(s, "x", 8)
	pts := s.Points("x")
	if len(pts) != 8 {
		t.Fatalf("ring length = %d, want 8", len(pts))
	}
	for i, p := range pts {
		cp := uint64(i + 1)
		v := float64(cp * 10)
		if p.CPFirst != cp || p.CPLast != cp || p.At != time.Duration(cp) ||
			p.Min != v || p.Max != v || p.Sum != v || p.Count != 1 {
			t.Fatalf("point %d = %+v, want the single sample %v at cp %d", i, p, v, cp)
		}
	}
	if v, ok := s.ValueAt("x", 3); !ok || v != 30 {
		t.Fatalf("ValueAt(3) = %v,%v, want 30", v, ok)
	}
	if d, ok := s.CounterDelta("x", 2, 5); !ok || d != 30 {
		t.Fatalf("CounterDelta(2,5) = %v,%v, want 30", d, ok)
	}
}

// A window spanning folded points: capacity 4 over 8 CPs leaves
// [1..4][5..6][7][8]. A folded point keeps the min, max, sum and count of
// what it folded, so a monotone series' value is exact at both ends of every
// fold and a delta between fold boundaries stays exact.
func TestWindowStatsSpansFoldedPoints(t *testing.T) {
	s := NewStore(Config{Capacity: 4})
	monotone(s, "x", 8)
	want := [][2]uint64{{1, 4}, {5, 6}, {7, 7}, {8, 8}}
	if got := pointRanges(s, "x"); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring = %v, want %v", got, want)
	}
	p := s.Points("x")[0]
	if p.Min != 10 || p.Max != 40 || p.Count != 4 || p.Sum != 10+20+30+40 || p.At != 4 {
		t.Fatalf("fold [1..4] = %+v, want min 10 max 40 count 4 sum 100 at 4", p)
	}
	if d, ok := s.CounterDelta("x", 0, 6); !ok || d != 60 {
		t.Fatalf("CounterDelta(0,6) = %v,%v, want 60", d, ok)
	}
	if d, ok := s.CounterDelta("x", 4, 6); !ok || d != 20 {
		t.Fatalf("CounterDelta(4,6) = %v,%v, want 20 (fold end to fold end)", d, ok)
	}
}

// A window that only partially intersects the retained ring: a trailing edge
// past the newest CP clamps to the newest value, a leading edge before the
// first sample reads zero, and an unknown series answers nothing.
func TestWindowStatsPartialCoverage(t *testing.T) {
	s := NewStore(Config{Capacity: 4})
	monotone(s, "x", 8) // ring: [1..4][5..6][7][8]
	if d, ok := s.CounterDelta("x", 9, 20); !ok || d != 0 {
		t.Fatalf("window beyond the newest CP = %v,%v, want 0,true", d, ok)
	}
	if d, ok := s.CounterDelta("x", 7, 20); !ok || d != 10 {
		t.Fatalf("tail clamp = %v,%v, want 10 (70 to the newest 80)", d, ok)
	}
	if v, ok := s.ValueAt("x", 0); !ok || v != 0 {
		t.Fatalf("head clamp = %v,%v, want 0,true", v, ok)
	}
	if _, ok := s.CounterDelta("y", 1, 8); ok {
		t.Fatal("unknown series should not return a delta")
	}
	if pts := s.Points("y"); pts != nil {
		t.Fatalf("unknown series has points %+v", pts)
	}
}

func TestValueAtAndCounterDelta(t *testing.T) {
	s := NewStore(Config{Capacity: 4})
	monotone(s, "x", 8) // ring: [1..4][5..6][7][8]

	cases := []struct {
		cp   uint64
		want float64
	}{
		{0, 0},  // before the series: counters start at zero
		{4, 40}, // fold boundary: exact (Max of [1..4])
		{2, 10}, // inside a fold: conservative start-of-fold value
		{6, 60},
		{7, 70},
		{8, 80},
		{99, 80}, // past the end: newest value
	}
	for _, c := range cases {
		got, ok := s.ValueAt("x", c.cp)
		if !ok || got != c.want {
			t.Errorf("ValueAt(%d) = %v,%v, want %v", c.cp, got, ok, c.want)
		}
	}
	if _, ok := s.ValueAt("y", 1); ok {
		t.Error("ValueAt on unknown series should report !ok")
	}

	// Delta over the whole run is exact regardless of folding.
	if d, ok := s.CounterDelta("x", 0, 8); !ok || d != 80 {
		t.Errorf("CounterDelta(0,8) = %v,%v, want 80", d, ok)
	}
	// Both endpoints on retained boundaries: exact.
	if d, ok := s.CounterDelta("x", 4, 7); !ok || d != 30 {
		t.Errorf("CounterDelta(4,7) = %v,%v, want 30", d, ok)
	}
	// Endpoint inside a fold resolves to the fold's start.
	if d, ok := s.CounterDelta("x", 5, 8); !ok || d != 30 {
		t.Errorf("CounterDelta(5,8) = %v,%v, want 30 (from folds to 50)", d, ok)
	}
}

// Zero-length windows (fromCP == toCP) are legal: they read no increase at
// full resolution, inside a folded range and before the series' first
// sample alike.
func TestWindowStatsZeroLength(t *testing.T) {
	s := NewStore(Config{Capacity: 16})
	monotone(s, "x", 8)
	if d, ok := s.CounterDelta("x", 5, 5); !ok || d != 0 {
		t.Fatalf("full-res (5,5] = %v,%v, want 0,true", d, ok)
	}
	if v, ok := s.ValueAt("x", 5); !ok || v != 50 {
		t.Fatalf("full-res ValueAt(5) = %v,%v, want 50", v, ok)
	}

	f := NewStore(Config{Capacity: 4})
	monotone(f, "x", 8) // ring: [1..4][5..6][7][8]
	if d, ok := f.CounterDelta("x", 2, 2); !ok || d != 0 {
		t.Fatalf("folded (2,2] = %v,%v, want 0,true", d, ok)
	}
	if d, ok := f.CounterDelta("x", 0, 0); !ok || d != 0 {
		t.Fatalf("(0,0] before the first sample = %v,%v, want 0,true", d, ok)
	}
}

// Window edges landing exactly on fold boundaries: a start on a fold's last
// CP reads the fold's exact maximum, a start on the next fold's first CP its
// exact minimum, so both deltas are exact.
func TestWindowStatsStartOnFoldBoundary(t *testing.T) {
	s := NewStore(Config{Capacity: 4})
	monotone(s, "x", 8) // ring: [1..4][5..6][7][8]
	if d, ok := s.CounterDelta("x", 4, 7); !ok || d != 30 {
		t.Fatalf("(4,7] = %v,%v, want 30", d, ok)
	}
	if d, ok := s.CounterDelta("x", 5, 7); !ok || d != 20 {
		t.Fatalf("(5,7] = %v,%v, want 20", d, ok)
	}
}

// CounterDelta across a counter reset: the series drops, the delta clamps
// to zero rather than going negative — a reset reads as "no increase", not
// an error, so burn-rate math never sees negative rates.
func TestCounterDeltaAcrossReset(t *testing.T) {
	s := NewStore(Config{Capacity: 16})
	s.Observe("x", 1, time.Duration(1), 100)
	s.Observe("x", 2, time.Duration(2), 200)
	s.Observe("x", 3, time.Duration(3), 5) // reset: process restarted
	s.Observe("x", 4, time.Duration(4), 30)

	if d, ok := s.CounterDelta("x", 2, 3); !ok || d != 0 {
		t.Errorf("delta across reset = %v,%v, want 0,true (clamped)", d, ok)
	}
	if d, ok := s.CounterDelta("x", 1, 4); !ok || d != 0 {
		t.Errorf("delta spanning reset = %v,%v, want 0,true (30 < 100 clamps)", d, ok)
	}
	// After the reset the series is monotone again; deltas resume.
	if d, ok := s.CounterDelta("x", 3, 4); !ok || d != 25 {
		t.Errorf("post-reset delta = %v,%v, want 25", d, ok)
	}
	// Zero-length delta is always zero.
	if d, ok := s.CounterDelta("x", 2, 2); !ok || d != 0 {
		t.Errorf("zero-length delta = %v,%v, want 0,true", d, ok)
	}
}

// Histogram bucket series: with a HistBuckets filter the store keeps one
// cumulative counter series per finite bound, enabling windowed
// threshold-exceed queries by delta.
func TestSampleHistogramBucketSeries(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_ns", []uint64{10, 100, 1000})
	h.Observe(5)
	h.Observe(50)
	h.ObserveN(500, 3)

	s := NewStore(Config{Capacity: 8, HistBuckets: SuffixFilter(".lat_ns")})
	s.Sample("arm", 1, time.Nanosecond, reg.StableSnapshot())
	h.ObserveN(5000, 2) // +Inf bucket
	s.Sample("arm", 2, 2*time.Nanosecond, reg.StableSnapshot())

	wantAt2 := map[string]float64{
		"arm.lat_ns.le_10":   1,
		"arm.lat_ns.le_100":  2,
		"arm.lat_ns.le_1000": 5,
		"arm.lat_ns.count":   7,
	}
	for name, want := range wantAt2 {
		if v, ok := s.ValueAt(name, 2); !ok || v != want {
			t.Errorf("%s at cp2 = %v,%v, want %v", name, v, ok, want)
		}
	}
	// Threshold-exceed over (1,2]: samples above 1000 = count − le_1000.
	cd := func(name string) float64 {
		d, _ := s.CounterDelta(name, 1, 2)
		return d
	}
	if bad := cd("arm.lat_ns.count") - cd("arm.lat_ns.le_1000"); bad != 2 {
		t.Errorf("windowed above-threshold = %v, want 2", bad)
	}

	// Without the filter no bucket series exist.
	s2 := NewStore(Config{Capacity: 8})
	s2.Sample("arm", 1, time.Nanosecond, reg.StableSnapshot())
	if pts := s2.Points("arm.lat_ns.le_10"); pts != nil {
		t.Errorf("unexpected bucket series without filter: %+v", pts)
	}
}

// The double-wrap regression: after the ring folds twice, old history is
// held in two-deep folded points ([1..8] at capacity 8). A window starting
// exactly on a fold boundary must stay exact — CounterDelta endpoints on
// retained boundaries resolve precisely, endpoints inside a fold resolve
// conservatively to the fold's start, and every folded point keeps the exact
// statistics of what it folded. These exact values are pinned because the SLO burn-rate
// and controller signal reads depend on them.
func TestWindowQueriesAfterDoubleWrap(t *testing.T) {
	s := NewStore(Config{Capacity: 8})
	for cp := uint64(1); cp <= 20; cp++ {
		s.Observe("x", cp, time.Duration(cp)*time.Millisecond, float64(cp))
	}
	// Fold trace at capacity 8: add 9 folds to pairs, add 13 folds again
	// (second wrap), add 17 folds a third time. Final ring:
	//   [1..8] [9..12] [13,14] [15,16] 17 18 19 20
	pts := s.Points("x")
	if len(pts) != 8 {
		t.Fatalf("ring length = %d, want 8", len(pts))
	}
	wantRanges := [][2]uint64{{1, 8}, {9, 12}, {13, 14}, {15, 16}, {17, 17}, {18, 18}, {19, 19}, {20, 20}}
	for i, r := range wantRanges {
		if pts[i].CPFirst != r[0] || pts[i].CPLast != r[1] {
			t.Fatalf("point %d spans [%d,%d], want [%d,%d]", i, pts[i].CPFirst, pts[i].CPLast, r[0], r[1])
		}
	}

	// ValueAt on fold boundaries is exact; inside a fold it returns the
	// fold's starting value (newest exactly-known value at-or-before cp).
	valueAt := []struct {
		cp   uint64
		want float64
	}{{0, 0}, {1, 1}, {7, 1}, {8, 8}, {9, 9}, {10, 9}, {11, 9}, {12, 12}, {13, 13}, {20, 20}}
	for _, c := range valueAt {
		if v, ok := s.ValueAt("x", c.cp); !ok || v != c.want {
			t.Errorf("ValueAt(%d) = %v,%v, want %v", c.cp, v, ok, c.want)
		}
	}

	// CounterDelta with both endpoints on fold boundaries is exact even
	// across two folds; endpoints inside a fold clamp conservatively.
	deltas := []struct {
		from, to uint64
		want     float64
	}{
		{8, 20, 12}, // boundary → live point: exact
		{9, 12, 3},  // fold start (conservative 9) → fold end (exact 12)
		{10, 11, 0}, // both inside one fold: conservative zero
		{1, 8, 7},   // within the deepest fold, boundary to boundary
		{12, 13, 1}, // fold end → next fold start
		{0, 20, 20}, // before first sample → 0 baseline
		{16, 18, 2}, // second-wrap fold boundary into singles
	}
	for _, c := range deltas {
		if d, ok := s.CounterDelta("x", c.from, c.to); !ok || d != c.want {
			t.Errorf("CounterDelta(%d,%d) = %v,%v, want %v", c.from, c.to, d, ok, c.want)
		}
	}

	// Folded points keep what they folded: the twice-folded [1..8] and the
	// once-folded [9..12] carry their exact counts, sums and extremes.
	for _, c := range []struct {
		i             int
		count         uint64
		sum, min, max float64
	}{{0, 8, 36, 1, 8}, {1, 4, 42, 9, 12}, {2, 2, 27, 13, 14}} {
		p := pts[c.i]
		if p.Count != c.count || p.Sum != c.sum || p.Min != c.min || p.Max != c.max {
			t.Errorf("point %d = %+v, want count %d sum %v min %v max %v", c.i, p, c.count, c.sum, c.min, c.max)
		}
	}
	if p := pts[1]; p.At != 12*time.Millisecond {
		t.Errorf("fold [9..12] stamped %v, want its newest sample's 12ms", p.At)
	}
}
