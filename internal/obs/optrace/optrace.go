// Package optrace records request-scoped span trees on the modeled clock:
// each sampled read/write op gets a deterministic trace ID and a tree of
// stage spans (base CPU, allocator pick, CP cost attribution, device-busy
// leaves) whose durations reconcile exactly with the per-volume latency
// histograms — the "why was this op slow" companion to the SLO engine's
// "that it was slow".
//
// Sampling is deterministic and worker-count invariant: every op of a kind
// draws a monotonic per-volume sequence number, the trace ID is a pure
// splitmix64-style hash of (seed, space, kind, seq), and an op is recorded
// either because the rate sampler selected its sequence number (1-in-Rate)
// or because its latency crossed the slow threshold (the "always sample the
// top histogram buckets" rule). Traces land in bounded per-volume rings
// with oldest-first eviction, so the surviving tail is a pure function of
// the workload at any worker width.
//
// Like the rest of obs, nil *Recorder and nil *Ring are valid no-op
// receivers: a disabled tap pays one nil check.
package optrace

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"waflfs/internal/obs"
	"waflfs/internal/obs/rule"
)

// Stage indexes the latency-attribution stages. The per-volume accumulated
// nanoseconds of every stage sum exactly to the volume's lat_ns histogram
// total — the reconciliation the optrace.attr_coverage artifact gate pins.
type Stage int

const (
	// StageBase is the per-op WAFL code-path base CPU charge.
	StageBase Stage = iota
	// StageDevice is device time: read I/O for reads, the op's share of the
	// CP's flush device time for writes.
	StageDevice
	// StageMetafile is the write share of bitmap-metafile page writeback CPU.
	StageMetafile
	// StageScan is the write share of virtual-allocation cursor sweep CPU.
	StageScan
	// StageCache is the write share of AA-cache maintenance CPU.
	StageCache
	// NumStages bounds per-stage accumulator arrays.
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageBase:
		return "base_cpu"
	case StageDevice:
		return "device"
	case StageMetafile:
		return "metafile"
	case StageScan:
		return "scan"
	case StageCache:
		return "cache"
	}
	return "unknown"
}

// Stages returns every Stage in fixed order.
func Stages() []Stage {
	return []Stage{StageBase, StageDevice, StageMetafile, StageScan, StageCache}
}

// Kind labels an op's direction.
type Kind int

const (
	KindRead Kind = iota
	KindWrite
	numKinds
)

func (k Kind) String() string {
	if k == KindWrite {
		return "write"
	}
	return "read"
}

// Span is one node of a trace's span tree. Zero-duration spans are
// informational annotations (pick provenance, stall counts): they carry no
// attributed time and never win the critical path.
type Span struct {
	Name     string `json:"name"`
	DurNS    uint64 `json:"dur_ns"`
	Detail   string `json:"detail,omitempty"`
	Children []Span `json:"children,omitempty"`
}

// Trace is one sampled op: identity, modeled timing, and the span tree.
type Trace struct {
	// ID is the deterministic nonzero trace ID (see TraceID).
	ID uint64 `json:"id"`
	// Space names the owning volume ring, matching the pick-provenance and
	// fragscan stream names: "<arm>.vol.<name>".
	Space string `json:"space"`
	Kind  string `json:"kind"`
	// Seq is the per-(space, kind) op ordinal, starting at 1.
	Seq uint64 `json:"seq"`
	// CP is the consistency point the op belongs to: the CP that committed a
	// write batch, or the newest committed CP at read time.
	CP uint64 `json:"cp"`
	// AtNS is the modeled clock (cumulative device busy + CPU) at record.
	AtNS int64 `json:"at_ns"`
	// LatNS is the op's modeled latency — the value observed into the
	// volume's lat_ns histogram.
	LatNS uint64 `json:"lat_ns"`
	// Blocks is the number of blocks sharing this latency (write traces
	// stand for a volume's whole CP commit batch); 0 for reads.
	Blocks uint64 `json:"blocks,omitempty"`
	// Slow marks traces recorded by the slow gate rather than (only) the
	// rate sampler.
	Slow  bool   `json:"slow,omitempty"`
	Spans []Span `json:"spans"`
}

// CriticalPath walks the span tree root-to-leaf, descending into the
// largest-duration child at every level (first wins ties; zero-duration
// annotation spans never win). The returned chain is the op's dominant
// cost path — e.g. op → device → rg1.
func (t *Trace) CriticalPath() []Span {
	var path []Span
	nodes := t.Spans
	for len(nodes) > 0 {
		best := -1
		for i := range nodes {
			if nodes[i].DurNS > 0 && (best < 0 || nodes[i].DurNS > nodes[best].DurNS) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		path = append(path, nodes[best])
		nodes = nodes[best].Children
	}
	return path
}

// Exemplar references one representative recorded trace for a histogram
// bucket: the newest recorded trace whose latency landed in the bucket.
type Exemplar struct {
	// LeNS is the bucket's upper bound in nanoseconds; 0 marks the overflow
	// (+inf) bucket.
	LeNS  uint64 `json:"le_ns,omitempty"`
	ID    uint64 `json:"id"`
	LatNS uint64 `json:"lat_ns"`
	CP    uint64 `json:"cp"`
}

// Config parameterizes a Recorder.
type Config struct {
	// Rate samples 1 op in Rate per (volume, kind) sequence; ≤0 selects 16.
	Rate int
	// SlowNS always-samples ops at or above this modeled latency, whatever
	// the rate sampler said; ≤0 selects 20ms — the default SLO latency
	// threshold, which lands in the top decades of obs.LatencyBuckets.
	SlowNS uint64
	// Capacity is the per-volume trace-ring bound; ≤0 selects 256.
	Capacity int
	// Seed folds into every trace ID so distinct runs produce distinct IDs.
	Seed int64
}

// DefaultConfig returns the stock sampling parameters.
func DefaultConfig() Config {
	return Config{Rate: 16, SlowNS: 20_000_000, Capacity: 256}
}

func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.Rate <= 0 {
		c.Rate = d.Rate
	}
	if c.SlowNS == 0 {
		c.SlowNS = d.SlowNS
	}
	if c.Capacity <= 0 {
		c.Capacity = d.Capacity
	}
	return c
}

// splitmix64 is the SplitMix64 finalizer — a cheap, high-quality bijection.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// TraceID returns the deterministic nonzero trace ID of op seq of the given
// kind in the named space under the given seed — a pure function, so any
// party can recompute an op's ID without the recorder.
func TraceID(seed int64, space string, kind Kind, seq uint64) uint64 {
	id := splitmix64(splitmix64(uint64(seed)) ^ fnv64(space) ^ uint64(kind)<<56 ^ seq)
	if id == 0 {
		id = 1
	}
	return id
}

// Recorder hands out one bounded trace Ring per volume space.
type Recorder struct {
	cfg   Config
	rings rule.Keyed[*Ring]
}

// NewRecorder creates an empty recorder; zero Config fields select defaults.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.normalized()}
}

// Config returns the normalized sampling parameters.
func (r *Recorder) Config() Config {
	if r == nil {
		return Config{}
	}
	return r.cfg
}

// spaces is the ring registry; nil (empty, creating nothing) on a nil
// recorder.
func (r *Recorder) spaces() *rule.Keyed[*Ring] {
	if r == nil {
		return nil
	}
	return &r.rings
}

// Space returns the named space's ring, creating it on first use. A nil
// recorder returns a nil ring (whose methods are no-ops).
func (r *Recorder) Space(name string) *Ring {
	return r.spaces().Ensure(name, nil, func() *Ring {
		return &Ring{
			space: name, rate: uint64(r.cfg.Rate), slowNS: r.cfg.SlowNS,
			seed:      r.cfg.Seed,
			hist:      rule.MakeRing[Trace](r.cfg.Capacity),
			exemplars: make([]Exemplar, len(obs.LatencyBuckets)+1),
		}
	})
}

// Spaces returns every space name with a ring, sorted.
func (r *Recorder) Spaces() []string { return r.spaces().Names() }

// Traces returns the named space's surviving traces, oldest first.
func (r *Recorder) Traces(space string) []Trace {
	g, _ := r.spaces().Get(space)
	return g.Traces()
}

// Find returns the surviving trace with the given ID, if any.
func (r *Recorder) Find(id uint64) (Trace, bool) {
	for _, sp := range r.Spaces() {
		for _, t := range r.Traces(sp) {
			if t.ID == id {
				return t, true
			}
		}
	}
	return Trace{}, false
}

// TotalSampled sums recorded traces over all rings (dropped included).
func (r *Recorder) TotalSampled() uint64 { return r.spaces().Sum((*Ring).Sampled) }

// TotalSlowSampled sums slow-gate recordings over all rings.
func (r *Recorder) TotalSlowSampled() uint64 { return r.spaces().Sum((*Ring).SlowSampled) }

// TotalDropped sums ring evictions over all rings.
func (r *Recorder) TotalDropped() uint64 { return r.spaces().Sum((*Ring).Dropped) }

// Exemplar returns the representative trace of the named space's worst
// populated latency bucket — the op the SLO transition log links to. The
// result is a pure function of the recorded stream, so it is identical at
// any worker width.
func (r *Recorder) Exemplar(space string) (id, latNS uint64, ok bool) {
	g, _ := r.spaces().Get(space)
	if g == nil {
		return 0, 0, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := len(g.exemplars) - 1; i >= 0; i-- {
		if ex := g.exemplars[i]; ex.ID != 0 {
			return ex.ID, ex.LatNS, true
		}
	}
	return 0, 0, false
}

// Filter selects traces for WriteJSON. The zero value selects everything.
type Filter struct {
	// Space keeps only spaces whose name contains this substring.
	Space string
	// MinLatNS keeps only traces at or above this latency.
	MinLatNS uint64
	// ID keeps only the trace with this exact ID (0 = all).
	ID uint64
	// Limit keeps only the newest N matching traces per space (≤0 = all).
	Limit int
}

func (f Filter) match(t *Trace) bool {
	if f.MinLatNS > 0 && t.LatNS < f.MinLatNS {
		return false
	}
	if f.ID != 0 && t.ID != f.ID {
		return false
	}
	return true
}

// spaceDump is one ring in the JSON document.
type spaceDump struct {
	Space       string     `json:"space"`
	Sampled     uint64     `json:"sampled"`
	SlowSampled uint64     `json:"slow_sampled"`
	Dropped     uint64     `json:"dropped"`
	Exemplars   []Exemplar `json:"exemplars"`
	Traces      []Trace    `json:"traces"`
}

// WriteJSON writes the matching rings as one deterministic JSON document:
// {"sampled":N,"slow_sampled":N,"dropped":N,"spaces":[...]}, spaces sorted,
// traces oldest first.
func (r *Recorder) WriteJSON(w io.Writer, f Filter) error {
	doc := struct {
		Sampled     uint64      `json:"sampled"`
		SlowSampled uint64      `json:"slow_sampled"`
		Dropped     uint64      `json:"dropped"`
		Spaces      []spaceDump `json:"spaces"`
	}{Spaces: []spaceDump{}}
	for _, sp := range r.Spaces() {
		if f.Space != "" && !strings.Contains(sp, f.Space) {
			continue
		}
		g := r.Space(sp)
		d := spaceDump{
			Space:       sp,
			Sampled:     g.Sampled(),
			SlowSampled: g.SlowSampled(),
			Dropped:     g.Dropped(),
			Exemplars:   g.Exemplars(),
			Traces:      []Trace{},
		}
		for _, t := range g.Traces() {
			t := t
			if f.match(&t) {
				d.Traces = append(d.Traces, t)
			}
		}
		if f.Limit > 0 && len(d.Traces) > f.Limit {
			d.Traces = d.Traces[len(d.Traces)-f.Limit:]
		}
		doc.Spaces = append(doc.Spaces, d)
		doc.Sampled += d.Sampled
		doc.SlowSampled += d.SlowSampled
		doc.Dropped += d.Dropped
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// CollapsedEvents renders every surviving trace's critical path as one
// synthetic timed span for obs.WriteCollapsed: the stack is
// "<space>;op.<kind>;<path frames>" and the value is the op's modeled
// latency, so a flamegraph shows where slow ops' nanoseconds go, split by
// volume, direction, and dominant stage.
func (r *Recorder) CollapsedEvents() []obs.Event {
	var evs []obs.Event
	for _, sp := range r.Spaces() {
		for _, t := range r.Traces(sp) {
			frames := make([]string, 0, 4)
			for _, s := range t.CriticalPath() {
				frames = append(frames, s.Name)
			}
			if len(frames) == 0 {
				continue
			}
			evs = append(evs, obs.Event{
				Sys:   t.Space,
				CP:    t.CP,
				Phase: "op." + t.Kind,
				Name:  strings.Join(frames, ";"),
				Dur:   time.Duration(t.LatNS),
			})
		}
	}
	return evs
}

// Ring is one volume's bounded trace history plus its sampling state.
type Ring struct {
	mu     sync.Mutex
	space  string
	rate   uint64
	slowNS uint64
	seed   int64

	hist rule.Ring[Trace] // bounded at Recorder capacity

	seqs        [numKinds]uint64
	sampled     uint64
	slowSampled uint64
	exemplars   []Exemplar // len(obs.LatencyBuckets)+1, indexed by bucket
}

// Begin draws the next op sequence number for the kind and returns the op's
// deterministic trace ID plus whether the rate sampler selected it. Call
// exactly once per op in the op's serial order (ops within a volume are
// serial at any worker width). Nil-safe: returns (0, 0, false).
func (g *Ring) Begin(kind Kind) (id, seq uint64, sampled bool) {
	if g == nil {
		return 0, 0, false
	}
	g.mu.Lock()
	g.seqs[kind]++
	seq = g.seqs[kind]
	g.mu.Unlock()
	return TraceID(g.seed, g.space, kind, seq), seq, seq%g.rate == 0
}

// Decide reports whether an op with the given rate-sampling decision and
// final latency should be recorded, and whether the slow gate (rather than
// the rate sampler alone) fired. Nil-safe: returns (false, false). Callers
// use it to skip span-tree construction for unrecorded ops.
func (g *Ring) Decide(sampled bool, latNS uint64) (record, slow bool) {
	if g == nil {
		return false, false
	}
	slow = latNS >= g.slowNS
	return sampled || slow, slow
}

// Add records one trace (its Slow field should carry Decide's slow result).
// The ring evicts oldest-first at capacity; exemplars index the trace by
// its latency bucket.
func (g *Ring) Add(t Trace) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if t.Space == "" {
		t.Space = g.space
	}
	g.sampled++
	if t.Slow {
		g.slowSampled++
	}
	b := sort.Search(len(obs.LatencyBuckets), func(i int) bool { return t.LatNS <= obs.LatencyBuckets[i] })
	ex := Exemplar{ID: t.ID, LatNS: t.LatNS, CP: t.CP}
	if b < len(obs.LatencyBuckets) {
		ex.LeNS = obs.LatencyBuckets[b]
	}
	g.exemplars[b] = ex
	g.hist.Push(t)
	g.mu.Unlock()
}

// Traces returns the surviving traces, oldest first.
func (g *Ring) Traces() []Trace {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hist.Snapshot()
}

// Exemplars returns the populated bucket exemplars, ascending by bucket.
func (g *Ring) Exemplars() []Exemplar {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := []Exemplar{}
	for _, ex := range g.exemplars {
		if ex.ID != 0 {
			out = append(out, ex)
		}
	}
	return out
}

// Sampled returns the total traces ever recorded (dropped included).
func (g *Ring) Sampled() uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sampled
}

// SlowSampled returns how many recordings the slow gate fired for.
func (g *Ring) SlowSampled() uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.slowSampled
}

// Dropped returns how many old traces the ring overwrote.
func (g *Ring) Dropped() uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hist.Dropped
}
