// Package tsdb is a fixed-memory, deterministic per-CP time-series store
// for the observability layer: one bounded ring of points per metric,
// sampled from the registry's stable snapshot at every consistency-point
// boundary. When a ring fills, adjacent points are pairwise merged
// (min/max/sum/count fold, CP-range union), halving the occupancy — so the
// store's footprint is a fixed bound independent of run length, and older
// history degrades gracefully into coarser aggregates instead of being
// dropped.
//
// Timestamps are the simulation's modeled clock (worker-invariant
// DeviceBusy+CPUTime), never the host clock, and samples are taken from
// stable (volatile-excluded) snapshots only — so two runs of the same
// workload at different worker widths produce byte-identical stores, the
// same determinism contract the CSV recorder keeps.
//
// Like the rest of obs, a nil *Store is a valid no-op receiver: the CP
// boundary pays one nil check when the store is disabled.
package tsdb

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"waflfs/internal/obs"
)

// Config parameterizes a Store.
type Config struct {
	// Capacity is the maximum number of points retained per series (≥1).
	// Once full, adjacent points merge pairwise and recording continues.
	Capacity int
	// HistBuckets, when non-nil, selects histogram metrics whose cumulative
	// per-bucket counts are additionally stored as one "<name>.le_<bound>"
	// counter series per finite bound (the metric name passed in carries the
	// "<sys>." prefix). The SLO engine needs these to answer windowed
	// percentile and threshold-exceed queries; the default nil keeps the
	// compact ".sum"/".count" pair only.
	HistBuckets func(metric string) bool
}

// SuffixFilter returns a HistBuckets predicate selecting metrics with the
// given name suffix.
func SuffixFilter(suffix string) func(string) bool {
	return func(name string) bool { return strings.HasSuffix(name, suffix) }
}

// DefaultConfig holds 512 points per series — at one sample per CP that is
// 512 CPs of full resolution, then progressively coarser aggregates.
func DefaultConfig() Config { return Config{Capacity: 512} }

// Point is one ring entry: a single CP sample, or the fold of a contiguous
// CP range after downsampling.
type Point struct {
	// CPFirst..CPLast is the (inclusive) CP-ordinal range folded into this
	// point; equal for a full-resolution sample.
	CPFirst uint64 `json:"cp_first"`
	CPLast  uint64 `json:"cp_last"`
	// At is the modeled-clock timestamp of the newest folded sample.
	At time.Duration `json:"at_ns"`

	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count uint64  `json:"count"`
}

// Avg returns the mean of the folded samples.
func (p Point) Avg() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum / float64(p.Count)
}

func merge(a, b Point) Point {
	out := Point{
		CPFirst: a.CPFirst,
		CPLast:  b.CPLast,
		At:      b.At,
		Min:     a.Min,
		Max:     a.Max,
		Sum:     a.Sum + b.Sum,
		Count:   a.Count + b.Count,
	}
	if b.Min < out.Min {
		out.Min = b.Min
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	return out
}

type series struct {
	pts []Point // len ≤ Config.Capacity; grows lazily via append
}

// add appends a full-resolution point, downsampling first if the ring is at
// capacity. The backing array grows lazily (short-lived series stay small)
// and its length never exceeds the configured capacity. Because folds merge
// rather than drop, the first retained point always begins at the series'
// first recorded CP — retained history spans the whole run at degrading
// resolution, which the window queries below rely on.
func (se *series) add(capacity int, p Point) {
	if len(se.pts) == capacity {
		if capacity == 1 {
			se.pts[0] = merge(se.pts[0], p)
			return
		}
		half := len(se.pts) / 2
		for i := 0; i < half; i++ {
			se.pts[i] = merge(se.pts[2*i], se.pts[2*i+1])
		}
		if len(se.pts)%2 == 1 {
			se.pts[half] = se.pts[len(se.pts)-1]
			half++
		}
		se.pts = se.pts[:half]
	}
	se.pts = append(se.pts, p)
}

// Store holds one bounded ring per series. Safe for concurrent use: the CP
// boundary records while live HTTP endpoints read.
type Store struct {
	mu          sync.Mutex
	capacity    int
	histBuckets func(string) bool
	series      map[string]*series
	// sampled caches, per (sys, metric) pair Sample has seen, the series the
	// metric feeds, so a CP builds no series name and hashes none: a plain
	// metric's one, or a histogram's ".sum", ".count" and, when HistBuckets
	// selects it, one ".le_<bound>" per finite bound. A registry never changes
	// a name's kind or a histogram's bounds, so neither does a pair.
	sampled map[sampleKey][]*series
}

type sampleKey struct{ sys, name string }

// NewStore creates an empty store. Capacity ≤ 0 selects the default.
func NewStore(cfg Config) *Store {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultConfig().Capacity
	}
	return &Store{
		capacity: cfg.Capacity, histBuckets: cfg.HistBuckets,
		series: make(map[string]*series), sampled: make(map[sampleKey][]*series),
	}
}

// Capacity returns the per-series point bound.
func (s *Store) Capacity() int {
	if s == nil {
		return 0
	}
	return s.capacity
}

// Observe records one sample of the named series at the given CP ordinal
// and modeled timestamp. No-op on a nil store.
func (s *Store) Observe(name string, cp uint64, at time.Duration, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.put(s.seriesLocked(name), cp, at, v)
	s.mu.Unlock()
}

// put appends one full-resolution sample to se. Called with mu held.
func (s *Store) put(se *series, cp uint64, at time.Duration, v float64) {
	se.add(s.capacity, Point{CPFirst: cp, CPLast: cp, At: at, Min: v, Max: v, Sum: v, Count: 1})
}

func (s *Store) seriesLocked(name string) *series {
	se := s.series[name]
	if se == nil {
		se = &series{}
		s.series[name] = se
	}
	return se
}

// resolve names and creates the series metric m of sys feeds.
func (s *Store) resolve(sys string, m obs.Metric) []*series {
	name := sys + "." + m.Name
	if m.Hist == nil {
		return []*series{s.seriesLocked(name)}
	}
	out := []*series{s.seriesLocked(name + ".sum"), s.seriesLocked(name + ".count")}
	if s.histBuckets != nil && s.histBuckets(name) {
		for _, b := range m.Hist.Bounds {
			out = append(out, s.seriesLocked(name+".le_"+strconv.FormatUint(b, 10)))
		}
	}
	return out
}

// Sample records every non-volatile metric of a registry snapshot under
// "<sys>.<metric>" (histograms split into ".sum" and ".count"). Callers
// pass StableSnapshot so the stored values are worker-invariant. No-op on
// a nil store.
func (s *Store) Sample(sys string, cp uint64, at time.Duration, snap obs.Snapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range snap.Metrics {
		if m.Volatile {
			continue
		}
		key := sampleKey{sys, m.Name}
		h := s.sampled[key]
		if h == nil {
			h = s.resolve(sys, m)
			s.sampled[key] = h
		}
		switch {
		case m.Hist != nil:
			s.put(h[0], cp, at, float64(m.Hist.Sum))
			s.put(h[1], cp, at, float64(m.Hist.Count))
			// Cumulative per-bucket counters, one series per finite bound,
			// so windowed queries can reconstruct the histogram of any CP
			// range by delta.
			var cum uint64
			for i, se := range h[2:] {
				cum += m.Hist.Counts[i]
				s.put(se, cp, at, float64(cum))
			}
		case m.Kind == obs.KindGauge:
			s.put(h[0], cp, at, float64(m.Gauge))
		default:
			s.put(h[0], cp, at, float64(m.Value))
		}
	}
}

// Window aggregates the retained points of one series over a CP range.
type Window struct {
	// Points is how many ring points intersected the window.
	Points int
	// CPFirst..CPLast is the CP range the intersecting points actually
	// cover, clamped to retained resolution (a folded point is included
	// whole when any of its range intersects the query).
	CPFirst, CPLast uint64
	// AtLast is the modeled timestamp of the newest intersecting point.
	AtLast time.Duration

	Min, Max, Sum float64
	Count         uint64
	// FirstMin is the Min of the oldest intersecting point and LastMax the
	// Max of the newest. For a monotone (counter) series these are exact
	// even across folds: within a folded point the minimum is the value at
	// CPFirst and the maximum the value at CPLast, so LastMax−FirstMin is
	// the increase over the covered range.
	FirstMin, LastMax float64
}

// WindowStats aggregates the named series over the CP range [fromCP, toCP]
// (inclusive). Folded points are included whenever their CP range intersects
// the query, so the returned coverage (CPFirst..CPLast) can be wider than
// asked once downsampling has coarsened old history. Returns ok=false when
// the series is unknown or no retained point intersects.
func (s *Store) WindowStats(name string, fromCP, toCP uint64) (Window, bool) {
	if s == nil {
		return Window{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se := s.series[name]
	if se == nil || len(se.pts) == 0 || fromCP > toCP {
		return Window{}, false
	}
	// Points are ordered by CP; find the first with CPLast >= fromCP and
	// take every one with CPFirst <= toCP from there.
	lo := sort.Search(len(se.pts), func(i int) bool { return se.pts[i].CPLast >= fromCP })
	var w Window
	for i := lo; i < len(se.pts) && se.pts[i].CPFirst <= toCP; i++ {
		p := se.pts[i]
		if w.Points == 0 {
			w = Window{CPFirst: p.CPFirst, Min: p.Min, Max: p.Max, FirstMin: p.Min}
		} else {
			if p.Min < w.Min {
				w.Min = p.Min
			}
			if p.Max > w.Max {
				w.Max = p.Max
			}
		}
		w.Points++
		w.CPLast = p.CPLast
		w.AtLast = p.At
		w.Sum += p.Sum
		w.Count += p.Count
		w.LastMax = p.Max
	}
	return w, w.Points > 0
}

// ValueAt returns a monotone (counter) series' value at-or-before the given
// CP. Exact at retained point boundaries; inside a folded range it returns
// the fold's starting value (the newest exactly-known value ≤ cp). A cp
// before the series' first sample returns 0 — counters start at zero, and
// folding never discards the front of a series, so the first retained point
// is the true beginning. ok=false only when the series is unknown.
func (s *Store) ValueAt(name string, cp uint64) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se := s.series[name]
	if se == nil || len(se.pts) == 0 {
		return 0, false
	}
	pts := se.pts
	if cp < pts[0].CPFirst {
		return 0, true
	}
	// Last point with CPFirst <= cp.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].CPFirst > cp }) - 1
	if cp >= pts[i].CPLast {
		return pts[i].Max, true
	}
	return pts[i].Min, true
}

// CounterDelta returns the increase of a monotone (counter) series over the
// half-open CP window (fromCP, toCP]: ValueAt(toCP) − ValueAt(fromCP),
// clamped at 0. Exact whenever both endpoints land on retained point
// boundaries (always true until folding coarsens them); endpoints inside a
// folded range resolve conservatively to the fold's starting value.
func (s *Store) CounterDelta(name string, fromCP, toCP uint64) (float64, bool) {
	v1, ok := s.ValueAt(name, toCP)
	if !ok {
		return 0, false
	}
	v0, _ := s.ValueAt(name, fromCP)
	if v1 < v0 {
		return 0, true
	}
	return v1 - v0, true
}

// NumSeries returns the number of distinct series recorded.
func (s *Store) NumSeries() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.series)
}

// SeriesWithPrefix returns every series name with the given prefix, sorted —
// how the SLO engine discovers per-volume SLI series under one system.
func (s *Store) SeriesWithPrefix(prefix string) []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for n := range s.series {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// SeriesNames returns every series name, sorted.
func (s *Store) SeriesNames() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.series))
	for n := range s.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Points returns a copy of the named series' ring, oldest first.
func (s *Store) Points(name string) []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se := s.series[name]
	if se == nil {
		return nil
	}
	return append([]Point(nil), se.pts...)
}

// SeriesDump is one series in a Dump, ordered by name across the dump.
type SeriesDump struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Dump returns every series with its points, sorted by name — the
// deterministic whole-store view the equivalence tests and the JSON
// endpoint share.
func (s *Store) Dump() []SeriesDump {
	if s == nil {
		return nil
	}
	names := s.SeriesNames()
	out := make([]SeriesDump, 0, len(names))
	for _, n := range names {
		out = append(out, SeriesDump{Name: n, Points: s.Points(n)})
	}
	return out
}

// WriteJSON writes the whole store as a single deterministic JSON document:
// {"capacity":C,"series":[{"name":...,"points":[...]}]}.
func (s *Store) WriteJSON(w io.Writer) error {
	doc := struct {
		Capacity int          `json:"capacity"`
		Series   []SeriesDump `json:"series"`
	}{Capacity: s.Capacity(), Series: s.Dump()}
	if doc.Series == nil {
		doc.Series = []SeriesDump{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
