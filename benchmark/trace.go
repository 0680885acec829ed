package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// Span kinds: one per call the benchmark makes into a layer. A segment is
// the harness's own span and the parent of everything inside it.
const (
	spanSegment = iota
	spanWrite
	spanRead
	spanCP
	spanDrain
	spanRemountSeeded
	spanRemountWalk
	spanBGFill
	spanSnapCreate
	spanSnapDelete
	spanScrub
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"segment", "wafl.write", "wafl.read", "wafl.cp", "wafl.drain",
	"wafl.remount_seeded", "wafl.remount_walk", "wafl.bgfill",
	"wafl.snap_create", "wafl.snap_delete", "wafl.scrub",
}

// Span is one timed call: times are nanoseconds since the recorder started.
// Parent is the ID of the enclosing span, -1 at the root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Mallocs and Bytes are runtime.MemStats deltas around the call,
	// recorded for CP and drain spans of a traced run.
	Mallocs uint64 `json:"mallocs,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`

	kind int
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// opSpans holds the per-op spans (wafl.write, wafl.read) of a traced run in
// parallel arrays: tens of millions of them are recorded, so they do not
// carry a name or an ID each. Their parent is the segment open at the time.
type opSpans struct {
	start  []int64
	dur    []uint32
	kind   []uint8
	parent []int32
}

// recorder times the benchmark's calls into the program. The coarse spans
// (segments, CPs, drains, remounts, snapshot calls, scrubs) are always
// recorded, because end-to-end metrics are medians over them; per-op spans
// and MemStats deltas only when traced is set.
type recorder struct {
	t0     time.Time
	traced bool
	spans  []Span
	ops    opSpans
	cur    int // open segment, -1 outside one
}

func newRecorder(traced bool, expectOps int) *recorder {
	r := &recorder{t0: time.Now(), traced: traced, cur: -1}
	if traced {
		r.ops.start = make([]int64, 0, expectOps)
		r.ops.dur = make([]uint32, 0, expectOps)
		r.ops.kind = make([]uint8, 0, expectOps)
		r.ops.parent = make([]int32, 0, expectOps)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// beginSegment opens a segment span; endSegment closes it.
func (r *recorder) beginSegment() {
	r.spans = append(r.spans, Span{ID: len(r.spans), Parent: -1, Name: spanNames[spanSegment], Start: r.now()})
	r.cur = len(r.spans) - 1
}

func (r *recorder) endSegment() {
	r.spans[r.cur].End = r.now()
	r.cur = -1
}

// call times fn as a coarse span of the given kind.
func (r *recorder) call(kind int, fn func()) {
	withMem := r.traced && (kind == spanCP || kind == spanDrain)
	var m0, m1 runtime.MemStats
	if withMem {
		runtime.ReadMemStats(&m0)
	}
	start := r.now()
	fn()
	end := r.now()
	sp := Span{ID: len(r.spans), Parent: r.cur, Name: spanNames[kind], Start: start, End: end, kind: kind}
	if withMem {
		runtime.ReadMemStats(&m1)
		sp.Mallocs = m1.Mallocs - m0.Mallocs
		sp.Bytes = m1.TotalAlloc - m0.TotalAlloc
	}
	r.spans = append(r.spans, sp)
}

// op records one per-op span (traced runs only).
func (r *recorder) op(kind int, start, end int64) {
	r.ops.start = append(r.ops.start, start)
	r.ops.dur = append(r.ops.dur, uint32(end-start))
	r.ops.kind = append(r.ops.kind, uint8(kind))
	r.ops.parent = append(r.ops.parent, int32(r.cur))
}

// opDurations returns the durations (ns) of every per-op span of a kind.
func (r *recorder) opDurations(kind int) []float64 {
	var out []float64
	for i, k := range r.ops.kind {
		if int(k) == kind {
			out = append(out, float64(r.ops.dur[i]))
		}
	}
	return out
}

// selfTimes returns, per coarse span ID, the span's duration minus the part
// its direct children cover. The benchmark is single-threaded, so children
// never overlap and the covered part is the plain sum.
func selfTimes(spans []Span, ops opSpans) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur()
		}
	}
	for i, p := range ops.parent {
		if p >= 0 {
			self[p] -= int64(ops.dur[i])
		}
	}
	return self
}

// median returns the middle sample, or the mean of the two middle samples
// of an even count, as Python's statistics.median does (0 for no samples).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailPercentile applies the reporting rule "median plus the highest
// percentile with at least ten samples beyond it": p99 needs 1000 samples,
// p90 needs 100, and below that only the median is supported.
func tailPercentile(n int) float64 {
	switch {
	case n >= 1000:
		return 99
	case n >= 100:
		return 90
	default:
		return 50
	}
}

// traceFile is the JSON written by a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Spans holds every coarse span, then the op spans of the head of each
	// segment; OpSpansTotal says how many op spans the run recorded in all.
	Spans         []Span `json:"spans"`
	OpSpansTotal  int    `json:"op_spans_total"`
	OpSpansPerSeg int    `json:"op_spans_written_per_segment"`
}

// opSpansWrittenPerSegment bounds the per-op spans written out per segment:
// all of them are kept in memory for the percentiles, but a 16 M-span JSON
// file is of no use to a reader.
const opSpansWrittenPerSegment = 2048

func (r *recorder) writeJSON(path, workload string, seed int64) error {
	tf := traceFile{Workload: workload, Seed: seed, Spans: append([]Span(nil), r.spans...),
		OpSpansTotal: len(r.ops.kind), OpSpansPerSeg: opSpansWrittenPerSegment}
	written := make(map[int32]int)
	for i, p := range r.ops.parent {
		if written[p] >= opSpansWrittenPerSegment {
			continue
		}
		written[p]++
		tf.Spans = append(tf.Spans, Span{
			ID: len(tf.Spans), Parent: int(p), Name: spanNames[r.ops.kind[i]],
			Start: r.ops.start[i], End: r.ops.start[i] + int64(r.ops.dur[i]),
		})
	}
	buf, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
