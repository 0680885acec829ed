// Package fragscan computes allocation-quality analytics over block number
// spaces: free-extent run-length histograms, per-AA free-fraction
// distributions (deciles plus heatmap rows keyed by (space, AA-bucket, CP)),
// stripe fullness for RAID-aware spaces, and picked-AA-quality series.
//
// These are the quantities the paper's evaluation (§4) is judged on — % free
// of picked AAs, contiguity of free space, full-stripe opportunity — and the
// quantities related log-structured work identifies as the predictors of
// write amplification. The analyzer is purely observational: it reads
// bitmaps through the cheap scan hooks (bitmap.FreeRunHist, bitmap.FreeWord,
// aa.Scores, hbps.BinSnapshot, heapcache.Score) and never charges modeled
// scan cost or touches an allocator counter, so enabling it cannot perturb an
// experiment's modeled clocks. Every hook works a bitmap word at a time, so
// a scan costs a few passes over the words whatever the fragmentation.
//
// Determinism contract: for a fixed workload and seed, scans, recorded
// report sequences, and serialized CSV/JSON output are byte-identical at any
// worker count, matching the rest of internal/obs.
package fragscan

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/block"
)

// Kind distinguishes the two space families of §3.
type Kind string

const (
	// KindRAID marks a RAID-aware space (striped AAs, heapcache-backed).
	KindRAID Kind = "raid"
	// KindHBPS marks a RAID-agnostic space (linear AAs, HBPS-backed).
	KindHBPS Kind = "hbps"
)

// DefaultAABuckets is the width of the per-AA free-fraction heatmap row:
// bucket b counts AAs with free fraction in [b/10, (b+1)/10).
const DefaultAABuckets = 10

// runBounds is the slice every Report's RunBounds shares; nobody writes
// through it. Bound i is bucket i of bitmap.RunHist.Log2.
var runBounds = func() []uint64 {
	bounds := make([]uint64, len(bitmap.RunHist{}.Log2)-1)
	for i := range bounds {
		bounds[i] = 1 << i
	}
	return bounds
}()

// Target describes one number space to scan. The zero value of the optional
// fields is safe: no device spans means run analysis covers the whole space
// as one extent stream and stripe fullness is skipped; zero Picks means no
// picked-quality series this window.
type Target struct {
	// Space names the report stream, e.g. "arm.rg0" or "arm.vol.va".
	Space string
	// Kind is KindRAID or KindHBPS.
	Kind Kind
	// Topo is the AA topology of the space.
	Topo aa.Topology
	// Bits is the bitmap backing the space.
	Bits *bitmap.Bitmap
	// DeviceSpans, for RAID spaces, holds one VBN range per data device,
	// all the same length, with stripe s at offset s within each span.
	// Runs are measured per device and stripe fullness is computed by
	// transposing 64-stripe chunks across devices.
	DeviceSpans []block.Range
	// Picks and PickedFreeFrac describe allocator picks since the last
	// scan of this space: how many AAs were picked and their mean free
	// fraction at pick time (§4.2's "% free of picked AAs").
	Picks          uint64
	PickedFreeFrac float64
	// CacheBins is an optional snapshot of the space's cache-side score
	// histogram (hbps.BinSnapshot, or a bucketed heapcache.Entries view)
	// to contrast the cache's coarse view with bitmap truth.
	CacheBins []uint64
}

// Report is one scan of one space at one CP.
type Report struct {
	Space string `json:"space"`
	CP    uint64 `json:"cp"`
	// Seq disambiguates multiple scans of the same space at the same CP,
	// in record order.
	Seq  int  `json:"seq"`
	Kind Kind `json:"kind"`

	Blocks uint64 `json:"blocks"`
	Free   uint64 `json:"free"`

	// Free-extent run-length histogram: RunCounts[i] counts maximal free
	// runs of length ≤ RunBounds[i] (last entry is the +Inf bucket).
	RunBounds  []uint64 `json:"run_bounds"`
	RunCounts  []uint64 `json:"run_counts"`
	Runs       uint64   `json:"runs"`
	LongestRun uint64   `json:"longest_run"`
	MeanRun    float64  `json:"mean_run"`

	// Deciles of the per-AA free fraction: min, p10..p90, max.
	Deciles []float64 `json:"deciles"`
	// AAHist is the heatmap row: AAHist[b] counts AAs whose free fraction
	// falls in bucket b of DefaultAABuckets equal-width buckets.
	AAHist []uint64 `json:"aa_hist"`

	// StripeHist, for RAID spaces, counts stripes by how many of their
	// data blocks are free: len(DeviceSpans)+1 entries.
	StripeHist []uint64 `json:"stripe_hist,omitempty"`
	// FreeStripeFrac is the fraction of stripes with every data block
	// free — the full-stripe-write opportunity.
	FreeStripeFrac float64 `json:"free_stripe_frac"`

	CacheBins      []uint64 `json:"cache_bins,omitempty"`
	Picks          uint64   `json:"picks"`
	PickedFreeFrac float64  `json:"picked_free_frac"`
}

// FreeFrac returns the overall free fraction of the space.
func (r Report) FreeFrac() float64 {
	if r.Blocks == 0 {
		return 0
	}
	return float64(r.Free) / float64(r.Blocks)
}

// Scan analyzes one space. It only reads: no scan cost is charged to the
// bitmap and no allocator state changes, so modeled clocks are unaffected.
func Scan(t Target, cp uint64) Report {
	rep := Report{
		Space:          t.Space,
		CP:             cp,
		Kind:           t.Kind,
		RunBounds:      runBounds,
		CacheBins:      t.CacheBins,
		Picks:          t.Picks,
		PickedFreeFrac: t.PickedFreeFrac,
	}

	// Per-AA free fractions: popcount scoring, then capacity-normalized.
	scores := aa.Scores(t.Topo, t.Bits, 1)
	fracs := make([]float64, len(scores))
	for id, s := range scores {
		cap := aa.Capacity(t.Topo, aa.ID(id))
		rep.Blocks += cap
		rep.Free += s
		if cap > 0 {
			fracs[id] = float64(s) / float64(cap)
		}
	}
	rep.AAHist = make([]uint64, DefaultAABuckets)
	for _, f := range fracs {
		b := int(f * DefaultAABuckets)
		if b >= DefaultAABuckets {
			b = DefaultAABuckets - 1
		}
		rep.AAHist[b]++
	}
	rep.Deciles = deciles(fracs)

	// Free-extent runs, measured per device span so a run never crosses a
	// device boundary; HBPS spaces use the whole space as one stream.
	spans := t.DeviceSpans
	if len(spans) == 0 {
		spans = []block.Range{t.Topo.Space()}
	}
	var h bitmap.RunHist
	for _, sp := range spans {
		t.Bits.FreeRunHist(sp, &h)
	}
	rep.RunCounts = slices.Clone(h.Log2[:])
	rep.Runs, rep.LongestRun = h.Runs, h.Longest
	if h.Runs > 0 {
		rep.MeanRun = float64(h.Blocks) / float64(h.Runs)
	}

	if t.Kind == KindRAID && len(t.DeviceSpans) > 0 {
		rep.StripeHist, rep.FreeStripeFrac = stripeFullness(t.Bits, t.DeviceSpans)
	}
	return rep
}

// deciles returns min, p10..p90, max of vs (11 entries) by nearest-rank on
// the sorted values; empty input yields 11 zeros.
func deciles(vs []float64) []float64 {
	out := make([]float64, 11)
	if len(vs) == 0 {
		return out
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	for i := range out {
		out[i] = sorted[i*(len(sorted)-1)/10]
	}
	return out
}

// stripeFullness counts stripes by free data blocks, 64 stripes at a time:
// one FreeWord per device per chunk, added into a bit-sliced counter (bit s of
// fill[j] is binary digit j of stripe s's count, as in raid's tetris builder),
// and one popcount per fill value to read the chunk out.
func stripeFullness(bm *bitmap.Bitmap, spans []block.Range) ([]uint64, float64) {
	stripes := spans[0].Len()
	for _, sp := range spans {
		if sp.Len() != stripes {
			return nil, 0 // heterogeneous spans: not a striped layout
		}
	}
	hist := make([]uint64, len(spans)+1)
	if stripes == 0 {
		return hist, 0
	}
	var fill [64]uint64
	digits := bits.Len(uint(len(spans)))
	for base := uint64(0); base < stripes; base += 64 {
		n := min(stripes-base, 64)
		clear(fill[:digits])
		for _, sp := range spans {
			for carry, j := bm.FreeWord(sp.Start+block.VBN(base), uint(n)), 0; carry != 0; j++ {
				fill[j], carry = fill[j]^carry, fill[j]&carry
			}
		}
		for k, left := 0, ^uint64(0)>>(64-n); left != 0; k++ {
			at := left
			for j := 0; j < digits; j++ {
				if k>>j&1 != 0 {
					at &= fill[j]
				} else {
					at &^= fill[j]
				}
			}
			hist[k] += uint64(bits.OnesCount64(at))
			left &^= at
		}
	}
	return hist, float64(hist[len(spans)]) / float64(stripes)
}

// Recorder accumulates reports from concurrent systems (experiment arms each
// scan at their own CP boundaries) and serializes them canonically: sorted
// by (Space, CP, Seq), so output is byte-identical at any worker count.
type Recorder struct {
	mu     sync.Mutex
	rows   []Report
	spaces map[string]*spaceRows
}

// spaceRows is what Record and Last need of one space's rows without reading
// them: its highest CP, how many rows carry it, and where the newest is.
type spaceRows struct {
	cp     uint64
	atCP   int
	newest int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{spaces: make(map[string]*spaceRows)} }

// Record stores one report, assigning its Seq. Nil-safe.
func (r *Recorder) Record(rep Report) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.spaces[rep.Space]
	switch {
	case sp == nil:
		sp = &spaceRows{cp: rep.CP}
		r.spaces[rep.Space] = sp
	case rep.CP > sp.cp:
		sp.cp, sp.atCP = rep.CP, 0
	case rep.CP < sp.cp: // out of order: count the rows, the newest stays
		for _, old := range r.rows {
			if old.Space == rep.Space && old.CP == rep.CP {
				rep.Seq++
			}
		}
		r.rows = append(r.rows, rep)
		return
	}
	rep.Seq += sp.atCP
	sp.atCP++
	sp.newest = len(r.rows)
	r.rows = append(r.rows, rep)
}

// Len returns the number of recorded reports.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rows)
}

// Reports returns a copy of all reports in canonical (Space, CP, Seq) order.
func (r *Recorder) Reports() []Report {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Report(nil), r.rows...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Space != b.Space {
			return a.Space < b.Space
		}
		if a.CP != b.CP {
			return a.CP < b.CP
		}
		return a.Seq < b.Seq
	})
	return out
}

// Last returns the most recent report for the named space, by (CP, Seq).
func (r *Recorder) Last(space string) (Report, bool) {
	if r == nil {
		return Report{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.spaces[space]
	if sp == nil {
		return Report{}, false
	}
	return r.rows[sp.newest], true
}

// CSVHeader is the first line of WriteCSV output: tidy long format, one
// observation per row.
const CSVHeader = "space,cp,series,key,value"

// WriteCSV serializes every report in canonical order as tidy rows
// (space, cp, series, key, value). Series:
//
//	scalar     key ∈ {blocks, free, free_frac, runs, longest_run,
//	           mean_run, free_stripe_frac, picks, picked_free_frac}
//	run_le     key = run-length bound in blocks ("inf" for overflow)
//	aa_bucket  key = free-fraction bucket index — the heatmap row keyed
//	           by (space, AA-bucket, CP)
//	decile     key = percentile (0, 10, …, 100) of per-AA free fraction
//	stripe_free key = free data blocks per stripe (RAID spaces)
//	cache_bin  key = cache histogram bin index (when snapshotted)
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, CSVHeader+"\n"); err != nil {
		return err
	}
	for _, rep := range r.Reports() {
		if err := writeReportCSV(w, rep); err != nil {
			return err
		}
	}
	return nil
}

func writeReportCSV(w io.Writer, rep Report) error {
	row := func(series, key string, val string) error {
		_, err := fmt.Fprintf(w, "%s,%d,%s,%s,%s\n", rep.Space, rep.CP, series, key, val)
		return err
	}
	u := strconv.FormatUint
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	scalars := []struct {
		key string
		val string
	}{
		{"blocks", u(rep.Blocks, 10)},
		{"free", u(rep.Free, 10)},
		{"free_frac", f(rep.FreeFrac())},
		{"runs", u(rep.Runs, 10)},
		{"longest_run", u(rep.LongestRun, 10)},
		{"mean_run", f(rep.MeanRun)},
		{"picks", u(rep.Picks, 10)},
		{"picked_free_frac", f(rep.PickedFreeFrac)},
	}
	for _, s := range scalars {
		if err := row("scalar", s.key, s.val); err != nil {
			return err
		}
	}
	if rep.StripeHist != nil {
		if err := row("scalar", "free_stripe_frac", f(rep.FreeStripeFrac)); err != nil {
			return err
		}
	}
	for i, c := range rep.RunCounts {
		key := "inf"
		if i < len(rep.RunBounds) {
			key = u(rep.RunBounds[i], 10)
		}
		if err := row("run_le", key, u(c, 10)); err != nil {
			return err
		}
	}
	for b, c := range rep.AAHist {
		if err := row("aa_bucket", strconv.Itoa(b), u(c, 10)); err != nil {
			return err
		}
	}
	for i, d := range rep.Deciles {
		if err := row("decile", strconv.Itoa(i*10), f(d)); err != nil {
			return err
		}
	}
	for n, c := range rep.StripeHist {
		if err := row("stripe_free", strconv.Itoa(n), u(c, 10)); err != nil {
			return err
		}
	}
	for b, c := range rep.CacheBins {
		if err := row("cache_bin", strconv.Itoa(b), u(c, 10)); err != nil {
			return err
		}
	}
	return nil
}
