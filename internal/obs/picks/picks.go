// Package picks records allocation-decision provenance: one compact record
// per AA pick, answering "why was this AA chosen over its alternatives" for
// both cache flavors (the RAID-aware max-heap and the RAID-agnostic HBPS)
// and the bitmap-fallback baselines.
//
// Records land in bounded per-space rings — fixed memory however long the
// run — with a monotonic per-space sequence number, so the surviving tail
// replays in canonical order. Picks within a space are serial (the CP
// pipeline allocates space by space) and concurrent experiment arms use
// disjoint space names, so the streams are byte-identical at any worker
// width; the per-ring locks exist only so live HTTP endpoints can read
// while a run records.
//
// Like the rest of obs, nil *Recorder and nil *Ring are valid no-op
// receivers: a disabled pick site pays one nil check.
package picks

import (
	"encoding/json"
	"io"
	"sync"

	"waflfs/internal/obs/rule"
)

// Reason classifies why an AA pick site chose its AA.
type Reason string

const (
	// HeapTop: the RAID-aware max-heap's best entry.
	HeapTop Reason = "heap_top"
	// HBPSBin: popped from the HBPS list front (best listed bin).
	HBPSBin Reason = "hbps_bin"
	// Refill: the HBPS list ran dry and was replenished from a bitmap walk
	// before the pop.
	Refill Reason = "refill"
	// BitmapFallback: caching disabled; the pick came from a random/linear
	// bitmap scan (the paper's baseline).
	BitmapFallback Reason = "bitmap_fallback"
	// ShardLocal: served from a per-worker shard queue without touching the
	// shared heap/HBPS — the striped allocator's contention-free fast path.
	ShardLocal Reason = "shard_local"
)

// Reasons returns every Reason in fixed order.
func Reasons() []Reason {
	return []Reason{HeapTop, HBPSBin, Refill, BitmapFallback, ShardLocal}
}

// PickRecord is one allocation decision.
type PickRecord struct {
	// Space names the picking space, matching fragscan's stream names:
	// "<arm>.rg<N>", "<arm>.vol.<name>", "<arm>.pool".
	Space string `json:"space"`
	// CP is the consistency-point ordinal being built when the pick
	// happened (picks occur inside CP processing).
	CP uint64 `json:"cp"`
	// Seq is the monotonic per-space pick ordinal, starting at 1. Gaps
	// never occur; a ring that wrapped simply no longer holds the low Seqs.
	Seq uint64 `json:"seq"`
	// AA is the chosen allocation area's ID.
	AA uint32 `json:"aa"`
	// Score is the chosen AA's score at pick time (free blocks): the cached
	// score for heap picks, the bitmap-derived score for HBPS and fallback
	// picks.
	Score int64 `json:"score"`
	// RunnerUp is the best alternative's score: the heap's next-best entry,
	// or the bin floor (a lower bound) of the HBPS's next listed AA. -1
	// when there was no alternative to compare (empty cache, fallback
	// scan).
	RunnerUp int64 `json:"runner_up"`
	// Depth is the cache depth remaining after the pick: heap length or
	// HBPS list length. 0 for fallback picks.
	Depth  int    `json:"depth"`
	Reason Reason `json:"reason"`
	// TraceID is the optrace ID of the op the pick served, when that op was
	// sampled; 0 otherwise. Lets /debug/picks and /debug/optrace
	// cross-reference the same allocation decision.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// Config parameterizes a Recorder.
type Config struct {
	// Capacity is the per-space ring bound (≥1).
	Capacity int
}

// DefaultConfig keeps the last 4096 picks per space.
func DefaultConfig() Config { return Config{Capacity: 4096} }

// Recorder hands out one bounded Ring per space.
type Recorder struct {
	capacity int
	rings    rule.Keyed[*Ring]
}

// NewRecorder creates an empty recorder. Capacity ≤ 0 selects the default.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultConfig().Capacity
	}
	return &Recorder{capacity: cfg.Capacity}
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
// recorder returns a nil ring (whose Record is a no-op).
func (r *Recorder) Space(name string) *Ring {
	return r.spaces().Ensure(name, nil, func() *Ring {
		return &Ring{space: name, hist: rule.MakeRing[PickRecord](r.capacity)}
	})
}

// Spaces returns every space name with a ring, sorted.
func (r *Recorder) Spaces() []string { return r.spaces().Names() }

// Records returns the named space's surviving records, oldest first.
func (r *Recorder) Records(space string) []PickRecord {
	g, _ := r.spaces().Get(space)
	return g.Records()
}

// All returns every surviving record across spaces in canonical
// (Space, Seq) order — the replayable provenance stream.
func (r *Recorder) All() []PickRecord {
	var out []PickRecord
	for _, sp := range r.Spaces() {
		out = append(out, r.Records(sp)...)
	}
	return out
}

// TotalRecorded sums Recorded over all rings.
func (r *Recorder) TotalRecorded() uint64 { return r.spaces().Sum((*Ring).Recorded) }

// TotalDropped sums Dropped over all rings.
func (r *Recorder) TotalDropped() uint64 { return r.spaces().Sum((*Ring).Dropped) }

// spaceDump is one ring in the JSON document.
type spaceDump struct {
	Space    string            `json:"space"`
	Recorded uint64            `json:"recorded"`
	Dropped  uint64            `json:"dropped"`
	Reasons  map[Reason]uint64 `json:"reasons"`
	Records  []PickRecord      `json:"records"`
}

// WriteJSON writes every ring as one deterministic JSON document:
// {"spaces":[{"space":...,"recorded":N,"dropped":N,"reasons":{...},
// "records":[...]}]}.
func (r *Recorder) WriteJSON(w io.Writer) error {
	doc := struct {
		Spaces []spaceDump `json:"spaces"`
	}{Spaces: []spaceDump{}}
	for _, sp := range r.Spaces() {
		g := r.Space(sp)
		d := spaceDump{
			Space:    sp,
			Recorded: g.Recorded(),
			Dropped:  g.Dropped(),
			Reasons:  make(map[Reason]uint64),
			Records:  g.Records(),
		}
		if d.Records == nil {
			d.Records = []PickRecord{}
		}
		for _, reason := range Reasons() {
			if n := g.ReasonCount(reason); n > 0 {
				d.Reasons[reason] = n
			}
		}
		doc.Spaces = append(doc.Spaces, d)
	}
	return json.NewEncoder(w).Encode(doc)
}

// Ring is one space's bounded pick history.
type Ring struct {
	mu      sync.Mutex
	space   string
	hist    rule.Ring[PickRecord] // bounded at Recorder capacity
	seq     uint64                // total records ever (next Seq - 1)
	reasons [5]uint64             // indexed parallel to Reasons()
}

func reasonIndex(reason Reason) int {
	switch reason {
	case HeapTop:
		return 0
	case HBPSBin:
		return 1
	case Refill:
		return 2
	case ShardLocal:
		return 4
	default:
		return 3
	}
}

// Record appends one pick. No-op on a nil ring — the disabled-path cost at
// every pick site is this one branch.
// tid is the optrace ID of the sampled op being served (0 when unsampled or
// tracing is off).
func (g *Ring) Record(cp uint64, id uint32, score, runnerUp int64, depth int, reason Reason, tid uint64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.seq++
	rec := PickRecord{
		Space: g.space, CP: cp, Seq: g.seq,
		AA: id, Score: score, RunnerUp: runnerUp, Depth: depth, Reason: reason,
		TraceID: tid,
	}
	g.reasons[reasonIndex(reason)]++
	g.hist.Push(rec)
	g.mu.Unlock()
}

// Records returns the surviving records, oldest first (ascending Seq).
func (g *Ring) Records() []PickRecord {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hist.Snapshot()
}

// Recorded returns the total records ever appended (dropped included).
func (g *Ring) Recorded() uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.seq
}

// Dropped returns how many old records the ring overwrote.
func (g *Ring) Dropped() uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hist.Dropped
}

// ReasonCount returns how many records carried the given reason.
func (g *Ring) ReasonCount(reason Reason) uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reasons[reasonIndex(reason)]
}
