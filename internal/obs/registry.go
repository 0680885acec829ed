// Package obs is the repo's structured observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) and exporters
// for the Prometheus text format and JSON snapshots.
//
// Two properties are load-bearing:
//
//   - Zero-overhead off switch. Every instrument type is nil-safe: calling
//     Add/Observe on a nil *Counter or *Histogram is a single branch and no
//     allocation, so instrumentation sites can hold possibly-nil pointers
//     and the default (observability off) costs nothing measurable (see
//     BenchmarkCounterHotPath).
//
//   - Determinism. Snapshots are ordered by metric name, and counter and
//     histogram updates are commutative atomics, so a run at Workers=8
//     produces bit-identical stable snapshots to the same run at Workers=1.
//     Metrics whose value legitimately depends on the worker count (modeled
//     flush wall-clock, pool slot accounting) are registered as volatile and
//     excluded from StableSnapshot.
package obs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is unusable;
// obtain one from Registry.Counter. All methods are nil-safe no-ops so
// disabled instrumentation costs one branch.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// AddDuration adds a non-negative duration, counted in nanoseconds.
func (c *Counter) AddDuration(d time.Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(uint64(d))
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 instrument.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current gauge value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over uint64 samples. Bounds are
// inclusive upper bounds in ascending order; an implicit +Inf bucket catches
// the overflow. Observations are two atomic adds plus a small binary search:
// no allocation on the hot path.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64
	count  atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending bucket bounds.
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// DurationBuckets is the standard bucket layout for modeled latencies, in
// nanoseconds: 1µs to 10s in decades.
var DurationBuckets = []uint64{
	1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000,
}

// LatencyBuckets is the finer 1-2-5 layout for per-volume modeled op
// latencies, in nanoseconds: 1µs to 10s. The SLO engine snaps latency
// thresholds to these bounds, so the resolution here bounds how precisely a
// latency objective can be stated.
var LatencyBuckets = []uint64{
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000,
	100_000_000, 200_000_000, 500_000_000,
	1_000_000_000, 2_000_000_000, 5_000_000_000, 10_000_000_000,
}

// FanoutBuckets is the standard bucket layout for work-pool fan-out widths.
var FanoutBuckets = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveN records n identical samples of value v — how a CP attributes one
// amortized per-block cost to every block it flushed without n binary
// searches. Equivalent to calling Observe(v) n times.
func (h *Histogram) ObserveN(v uint64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(n)
	h.sum.Add(v * n)
	h.count.Add(n)
}

// Value snapshots the histogram.
func (h *Histogram) Value() HistValue {
	if h == nil {
		return HistValue{}
	}
	hv := HistValue{
		Bounds: append([]uint64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		hv.Counts[i] = h.counts[i].Load()
	}
	return hv
}

// HistValue is the exported state of a histogram.
type HistValue struct {
	// Bounds are the inclusive upper bucket bounds, ascending.
	Bounds []uint64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the +Inf bucket.
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded samples by
// linear interpolation within the containing bucket, assuming samples are
// uniformly spread over each bucket's (lower, upper] range. Samples landing
// in the +Inf bucket are clamped to the highest finite bound, so tail
// quantiles are a lower bound once the histogram overflows. Returns 0 for
// an empty histogram.
func (hv HistValue) Quantile(q float64) float64 {
	if hv.Count == 0 || len(hv.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(hv.Count)
	var cum uint64
	for i, c := range hv.Counts {
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(hv.Bounds) { // +Inf bucket: clamp
			return float64(hv.Bounds[len(hv.Bounds)-1])
		}
		var lo float64
		if i > 0 {
			lo = float64(hv.Bounds[i-1])
		}
		hi := float64(hv.Bounds[i])
		frac := (rank - float64(cum-c)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return float64(hv.Bounds[len(hv.Bounds)-1])
}

// Quantile estimates the q-quantile of the live histogram; see
// HistValue.Quantile. Returns 0 for nil or empty histograms.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Value().Quantile(q)
}

// Kind names in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Metric is one named instrument's snapshot.
type Metric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value uint64 `json:"value,omitempty"` // counters
	Gauge int64  `json:"gauge,omitempty"` // gauges
	// Hist is set for histograms only.
	Hist *HistValue `json:"hist,omitempty"`
	// Volatile marks metrics whose value legitimately varies with the
	// worker count; StableSnapshot excludes them.
	Volatile bool `json:"volatile,omitempty"`
}

// Snapshot is a point-in-time view of a registry, ordered by metric name.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Get returns the named metric from the snapshot.
func (s Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		return s.Metrics[i], true
	}
	return Metric{}, false
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 {
	m, _ := s.Get(name)
	return m.Value
}

type entry struct {
	name     string
	kind     string
	volatile bool

	c   *Counter
	g   *Gauge
	h   *Histogram
	cfn func() uint64 // counter-valued read-through
	gfn func() int64  // gauge-valued read-through
}

func (e *entry) snapshot() Metric {
	m := Metric{Name: e.name, Kind: e.kind, Volatile: e.volatile}
	switch {
	case e.c != nil:
		m.Value = e.c.Value()
	case e.cfn != nil:
		m.Value = e.cfn()
	case e.g != nil:
		m.Gauge = e.g.Value()
	case e.gfn != nil:
		m.Gauge = e.gfn()
	case e.h != nil:
		hv := e.h.Value()
		m.Hist = &hv
	}
	return m
}

// Registry names and snapshots a set of instruments. Registration is
// idempotent by name (re-registering returns the existing instrument);
// snapshots are deterministic: sorted by name, with read-through functions
// evaluated at snapshot time.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	// ordered holds the entries by name; add keeps it so, and a snapshot
	// reads it instead of sorting the map's contents.
	ordered []*entry

	// mirror, when set, receives a prefixed alias of every entry registered
	// here — how per-System registries feed a shared export registry without
	// double accounting (the alias shares the underlying instrument).
	mirror       *Registry
	mirrorPrefix string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// MirrorTo makes every current and future entry of r also visible in dst
// under prefix+name. The mirrored entries share the underlying instruments,
// so there is exactly one accounting path. Name collisions in dst get a
// deterministic "#2", "#3", ... suffix.
func (r *Registry) MirrorTo(dst *Registry, prefix string) {
	if dst == nil {
		return
	}
	r.mu.Lock()
	r.mirror, r.mirrorPrefix = dst, prefix
	existing := slices.Clone(r.ordered)
	r.mu.Unlock()
	for _, e := range existing {
		dst.attach(prefix+e.name, e)
	}
}

// add stores e under its name, which must be unused. Called with mu held.
func (r *Registry) add(e *entry) {
	r.entries[e.name] = e
	i, _ := slices.BinarySearchFunc(r.ordered, e.name, func(o *entry, name string) int { return strings.Compare(o.name, name) })
	r.ordered = slices.Insert(r.ordered, i, e)
}

func (r *Registry) attach(name string, src *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	final := name
	for n := 2; ; n++ {
		if _, taken := r.entries[final]; !taken {
			break
		}
		final = fmt.Sprintf("%s#%d", name, n)
	}
	alias := *src
	alias.name = final
	r.add(&alias)
}

// ErrKindMismatch reports a metric name re-registered as a different
// instrument kind. The registration methods panic with it, wrapped with the
// name and both kinds, at the registration site, never later.
var ErrKindMismatch = errors.New("metric kind mismatch")

// register adds e under its name, or returns the existing entry of the same
// kind. A kind mismatch is a programming error and panics.
func (r *Registry) register(e *entry) *entry {
	r.mu.Lock()
	if old, ok := r.entries[e.name]; ok {
		r.mu.Unlock()
		if old.kind != e.kind {
			panic(fmt.Errorf("obs: %q re-registered as %s (was %s): %w",
				e.name, e.kind, old.kind, ErrKindMismatch))
		}
		return old
	}
	r.add(e)
	mirror, prefix := r.mirror, r.mirrorPrefix
	r.mu.Unlock()
	if mirror != nil {
		mirror.attach(prefix+e.name, e)
	}
	return e
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name string) *Counter {
	return r.register(&entry{name: name, kind: KindCounter, c: &Counter{}}).c
}

// VolatileCounter registers a counter excluded from StableSnapshot.
func (r *Registry) VolatileCounter(name string) *Counter {
	return r.register(&entry{name: name, kind: KindCounter, volatile: true, c: &Counter{}}).c
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return r.register(&entry{name: name, kind: KindGauge, g: &Gauge{}}).g
}

// Histogram registers (or fetches) a histogram with the given bounds.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	return r.register(&entry{name: name, kind: KindHistogram, h: NewHistogram(bounds)}).h
}

// CounterFunc registers a read-through counter: fn is evaluated at snapshot
// time. This is how existing accounting fields become registry views without
// a second accounting path that could drift.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.register(&entry{name: name, kind: KindCounter, cfn: fn})
}

// VolatileCounterFunc is CounterFunc for worker-count-dependent values.
func (r *Registry) VolatileCounterFunc(name string, fn func() uint64) {
	r.register(&entry{name: name, kind: KindCounter, volatile: true, cfn: fn})
}

// GaugeFunc registers a read-through gauge.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.register(&entry{name: name, kind: KindGauge, gfn: fn})
}

// Value returns the current counter value of the named metric.
func (r *Registry) Value(name string) (uint64, bool) {
	r.mu.Lock()
	e, ok := r.entries[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	m := e.snapshot()
	return m.Value, true
}

// Snapshot returns every metric, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	return r.snapshot(true)
}

// StableSnapshot returns every non-volatile metric, sorted by name. Two runs
// of the same workload at different worker counts produce DeepEqual stable
// snapshots — the registry's determinism contract.
func (r *Registry) StableSnapshot() Snapshot {
	return r.snapshot(false)
}

func (r *Registry) snapshot(includeVolatile bool) Snapshot {
	r.mu.Lock()
	es := make([]*entry, 0, len(r.ordered))
	for _, e := range r.ordered {
		if includeVolatile || !e.volatile {
			es = append(es, e)
		}
	}
	r.mu.Unlock()
	snap := Snapshot{Metrics: make([]Metric, len(es))}
	for i, e := range es {
		snap.Metrics[i] = e.snapshot()
	}
	return snap
}
