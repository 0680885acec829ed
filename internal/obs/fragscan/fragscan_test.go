package fragscan

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/raid"
)

// Summary condenses a space's report stream: final-scan state plus
// pick-weighted quality across the whole stream.
type Summary struct {
	Space          string  `json:"space"`
	Scans          int     `json:"scans"`
	FreeFrac       float64 `json:"free_frac"`        // final scan
	MeanRun        float64 `json:"mean_run"`         // final scan
	LongestRun     uint64  `json:"longest_run"`      // final scan
	FreeStripeFrac float64 `json:"free_stripe_frac"` // final scan (RAID)
	MedianAAFrac   float64 `json:"median_aa_frac"`   // final scan decile 50
	Picks          uint64  `json:"picks"`            // total across scans
	PickedFreeFrac float64 `json:"picked_free_frac"` // pick-weighted mean
}

// Summaries returns one Summary per space, sorted by space name.
func (r *Recorder) Summaries() []Summary {
	byspace := map[string]*Summary{}
	var order []string
	for _, rep := range r.Reports() { // canonical order: last report wins
		s := byspace[rep.Space]
		if s == nil {
			s = &Summary{Space: rep.Space}
			byspace[rep.Space] = s
			order = append(order, rep.Space)
		}
		s.Scans++
		s.FreeFrac = rep.FreeFrac()
		s.MeanRun = rep.MeanRun
		s.LongestRun = rep.LongestRun
		s.FreeStripeFrac = rep.FreeStripeFrac
		s.MedianAAFrac = rep.Deciles[5]
		s.Picks += rep.Picks
		s.PickedFreeFrac += rep.PickedFreeFrac * float64(rep.Picks)
	}
	sort.Strings(order)
	out := make([]Summary, 0, len(order))
	for _, name := range order {
		s := byspace[name]
		if s.Picks > 0 {
			s.PickedFreeFrac /= float64(s.Picks)
		} else {
			s.PickedFreeFrac = 0
		}
		out = append(out, *s)
	}
	return out
}

// A fresh space: one run spanning everything, all AAs fully free.
func TestScanFreshSpace(t *testing.T) {
	bm := bitmap.New(256)
	rep := Scan(Target{
		Space: "s", Kind: KindHBPS,
		Topo: aa.NewLinear(block.R(0, 256), 64), Bits: bm,
	}, 1)
	if rep.Blocks != 256 || rep.Free != 256 || rep.FreeFrac() != 1 {
		t.Fatalf("totals: %+v", rep)
	}
	if rep.Runs != 1 || rep.LongestRun != 256 || rep.MeanRun != 256 {
		t.Fatalf("runs: %+v", rep)
	}
	for i, d := range rep.Deciles {
		if d != 1 {
			t.Fatalf("decile %d = %v, want 1", i, d)
		}
	}
	wantHist := make([]uint64, DefaultAABuckets)
	wantHist[DefaultAABuckets-1] = 4
	if !reflect.DeepEqual(rep.AAHist, wantHist) {
		t.Fatalf("AAHist = %v, want %v", rep.AAHist, wantHist)
	}
	// 256 = 2^8 lands in the first bucket with bound >= 256.
	if rep.RunCounts[8] != 1 {
		t.Fatalf("RunCounts = %v, want single run at bucket 8", rep.RunCounts)
	}
}

// Known allocation pattern: AA0 fully used, AA1 alternating, AA2-3 free.
func TestScanKnownPattern(t *testing.T) {
	bm := bitmap.New(256)
	bm.SetRange(block.R(0, 64))
	for v := block.VBN(64); v < 128; v += 2 {
		bm.Set(v)
	}
	rep := Scan(Target{
		Space: "s", Kind: KindHBPS,
		Topo: aa.NewLinear(block.R(0, 256), 64), Bits: bm,
	}, 2)
	if rep.Free != 32+128 {
		t.Fatalf("free = %d, want 160", rep.Free)
	}
	// 32 single-block runs in AA1; the last one merges with AA2-3's 128
	// free blocks (runs don't observe AA boundaries): 31 runs of length 1
	// plus one run of 129.
	if rep.Runs != 32 || rep.LongestRun != 129 {
		t.Fatalf("runs=%d longest=%d, want 32/129", rep.Runs, rep.LongestRun)
	}
	if rep.RunCounts[0] != 31 { // bound 1
		t.Fatalf("RunCounts[<=1] = %d, want 31", rep.RunCounts[0])
	}
	// Per-AA fractions 0, 0.5, 1, 1: min 0, median 0.5..1 band, max 1.
	if rep.Deciles[0] != 0 || rep.Deciles[10] != 1 {
		t.Fatalf("deciles = %v", rep.Deciles)
	}
	if rep.AAHist[0] != 1 || rep.AAHist[5] != 1 || rep.AAHist[DefaultAABuckets-1] != 2 {
		t.Fatalf("AAHist = %v", rep.AAHist)
	}
}

// Stripe fullness transposes per-device spans: with 2 devices of 64
// stripes, allocating device 0's stripe 3 leaves 63 fully-free stripes.
func TestScanStripeFullness(t *testing.T) {
	bm := bitmap.New(128)
	bm.Set(3) // device 0, stripe 3
	rep := Scan(Target{
		Space: "s", Kind: KindRAID,
		Topo:        aa.NewLinear(block.R(0, 128), 64),
		Bits:        bm,
		DeviceSpans: []block.Range{block.R(0, 64), block.R(64, 128)},
	}, 1)
	if len(rep.StripeHist) != 3 {
		t.Fatalf("StripeHist = %v", rep.StripeHist)
	}
	if rep.StripeHist[2] != 63 || rep.StripeHist[1] != 1 || rep.StripeHist[0] != 0 {
		t.Fatalf("StripeHist = %v, want [0 1 63]", rep.StripeHist)
	}
	if want := 63.0 / 64.0; rep.FreeStripeFrac != want {
		t.Fatalf("FreeStripeFrac = %v, want %v", rep.FreeStripeFrac, want)
	}
	// Runs are per device span: device 0 has runs [0,3) and [4,64).
	if rep.Runs != 3 || rep.LongestRun != 64 {
		t.Fatalf("runs=%d longest=%d, want 3/64", rep.Runs, rep.LongestRun)
	}
}

// Recorder: canonical (Space, CP, Seq) ordering regardless of record order,
// Seq assignment for same-(space,cp) scans, Last, and CSV shape.
func TestRecorderOrderingAndCSV(t *testing.T) {
	rec := NewRecorder()
	mk := func(space string, cp uint64) Report {
		return Report{Space: space, CP: cp, Kind: KindHBPS,
			RunBounds: []uint64{1}, RunCounts: []uint64{0, 0},
			Deciles: make([]float64, 11), AAHist: make([]uint64, DefaultAABuckets)}
	}
	rec.Record(mk("b", 2))
	rec.Record(mk("a", 5))
	rec.Record(mk("b", 1))
	rec.Record(mk("b", 2)) // same (space, cp): Seq 1
	rec.Record(mk("a", 3))

	reps := rec.Reports()
	wantOrder := []struct {
		space string
		cp    uint64
		seq   int
	}{{"a", 3, 0}, {"a", 5, 0}, {"b", 1, 0}, {"b", 2, 0}, {"b", 2, 1}}
	if len(reps) != len(wantOrder) {
		t.Fatalf("got %d reports", len(reps))
	}
	for i, w := range wantOrder {
		if reps[i].Space != w.space || reps[i].CP != w.cp || reps[i].Seq != w.seq {
			t.Fatalf("report %d = (%s,%d,%d), want %+v", i, reps[i].Space, reps[i].CP, reps[i].Seq, w)
		}
	}
	if last, ok := rec.Last("b"); !ok || last.CP != 2 || last.Seq != 1 {
		t.Fatalf("Last(b) = %+v,%v", last, ok)
	}
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if lines[0] != CSVHeader {
		t.Fatalf("header = %q", lines[0])
	}
	// Rows per report: 8 scalars + 2 run_le + 10 aa_bucket + 11 decile.
	if want := 1 + 5*(8+2+10+11); len(lines) != want {
		t.Fatalf("%d CSV lines, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[1], "a,3,scalar,blocks,") {
		t.Fatalf("first data row = %q", lines[1])
	}
}

// The heatmap row key (space, AA-bucket, CP) appears literally in CSV.
func TestCSVHeatmapRows(t *testing.T) {
	rec := NewRecorder()
	bm := bitmap.New(128)
	bm.SetRange(block.R(0, 64))
	rec.Record(Scan(Target{Space: "hm", Kind: KindHBPS,
		Topo: aa.NewLinear(block.R(0, 128), 64), Bits: bm}, 4))
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hm,4,aa_bucket,0,1\n") ||
		!strings.Contains(sb.String(), "hm,4,aa_bucket,9,1\n") {
		t.Fatalf("heatmap rows missing:\n%s", sb.String())
	}
}

// Summaries: final-scan state, pick-weighted picked quality.
func TestSummaries(t *testing.T) {
	rec := NewRecorder()
	base := Report{Kind: KindHBPS, RunBounds: []uint64{1}, RunCounts: []uint64{0, 0},
		Deciles: make([]float64, 11), AAHist: make([]uint64, DefaultAABuckets)}
	r1 := base
	r1.Space, r1.CP, r1.Blocks, r1.Free, r1.Picks, r1.PickedFreeFrac = "x", 1, 100, 80, 4, 0.5
	r2 := base
	r2.Space, r2.CP, r2.Blocks, r2.Free, r2.Picks, r2.PickedFreeFrac = "x", 2, 100, 60, 12, 0.75
	r2.Deciles[5] = 0.6
	rec.Record(r1)
	rec.Record(r2)

	sums := rec.Summaries()
	if len(sums) != 1 {
		t.Fatalf("%d summaries", len(sums))
	}
	s := sums[0]
	if s.Space != "x" || s.Scans != 2 || s.FreeFrac != 0.6 || s.MedianAAFrac != 0.6 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Picks != 16 {
		t.Fatalf("picks = %d", s.Picks)
	}
	if want := (0.5*4 + 0.75*12) / 16; s.PickedFreeFrac != want {
		t.Fatalf("picked = %v, want %v", s.PickedFreeFrac, want)
	}
}

// refScan is Scan as it stood before the word-walking kernels: one callback
// and one binary search per free run, one increment per free bit of a stripe
// chunk. It is the reference the differential test holds Scan to.
func refScan(t Target, cp uint64) Report {
	rep := Report{
		Space:          t.Space,
		CP:             cp,
		Kind:           t.Kind,
		RunBounds:      runBounds,
		CacheBins:      t.CacheBins,
		Picks:          t.Picks,
		PickedFreeFrac: t.PickedFreeFrac,
	}
	rep.RunCounts = make([]uint64, len(rep.RunBounds)+1)

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

	spans := t.DeviceSpans
	if len(spans) == 0 {
		spans = []block.Range{t.Topo.Space()}
	}
	var runBlocks uint64
	for _, sp := range spans {
		t.Bits.ForEachFreeRun(sp, func(run block.Range) bool {
			l := run.Len()
			rep.Runs++
			runBlocks += l
			if l > rep.LongestRun {
				rep.LongestRun = l
			}
			rep.RunCounts[sort.Search(len(rep.RunBounds), func(i int) bool { return rep.RunBounds[i] >= l })]++
			return true
		})
	}
	if rep.Runs > 0 {
		rep.MeanRun = float64(runBlocks) / float64(rep.Runs)
	}

	if t.Kind == KindRAID && len(t.DeviceSpans) > 0 {
		rep.StripeHist, rep.FreeStripeFrac = refStripeFullness(t.Bits, t.DeviceSpans)
	}
	return rep
}

func refStripeFullness(bm *bitmap.Bitmap, spans []block.Range) ([]uint64, float64) {
	stripes := spans[0].Len()
	for _, sp := range spans {
		if sp.Len() != stripes {
			return nil, 0
		}
	}
	hist := make([]uint64, len(spans)+1)
	if stripes == 0 {
		return hist, 0
	}
	var acc [64]uint8
	for base := uint64(0); base < stripes; base += 64 {
		n := min(stripes-base, 64)
		clear(acc[:n])
		for _, sp := range spans {
			w := bm.FreeWord(sp.Start+block.VBN(base), uint(n))
			for w != 0 {
				acc[bits.TrailingZeros64(w)]++
				w &= w - 1
			}
		}
		for i := uint64(0); i < n; i++ {
			hist[acc[i]]++
		}
	}
	return hist, float64(hist[len(spans)]) / float64(stripes)
}

// churn ages r the way an overwrite workload does: filled, then freed and
// refilled a block at a time, with a few long extents punched free so every
// run-length class up to the span size occurs.
func churn(bm *bitmap.Bitmap, r block.Range, rng *rand.Rand) {
	bm.SetRange(r)
	n := int(r.Len())
	for i := 0; i < 2*n; i++ {
		v := r.Start + block.VBN(rng.Intn(n))
		if rng.Intn(5) < 2 {
			bm.Set(v)
		} else {
			bm.Clear(v)
		}
	}
	for i := 0; i < 4; i++ {
		from := r.Start + block.VBN(rng.Intn(n))
		bm.ClearRange(block.R(from, min(from+block.VBN(rng.Intn(n/3+1)), r.End)))
	}
}

// Scan and refScan must return DeepEqual reports on every kind of space.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var targets []Target
	// Aged RAID spaces: one data device to more than a word of them, stripe
	// counts that are not multiples of 64, a ragged last AA, and the group
	// not at VBN 0.
	for _, d := range []int{1, 3, 6, 14, 65} {
		for _, stripes := range []uint64{1, 63, 200, 4097} {
			geo := raid.Geometry{DataDevices: d, ParityDevices: 1, BlocksPerDevice: stripes, StartVBN: 77}
			bm := bitmap.New(uint64(geo.VBNRange().End) + 5)
			churn(bm, geo.VBNRange(), rng)
			spans := make([]block.Range, d)
			for i := range spans {
				spans[i] = geo.DeviceRange(i)
			}
			targets = append(targets, Target{
				Space: fmt.Sprintf("raid.d%d.s%d", d, stripes), Kind: KindRAID,
				Topo: aa.NewStriped(geo, 48), Bits: bm, DeviceSpans: spans,
				Picks: 3, PickedFreeFrac: 0.25, CacheBins: []uint64{1, 2},
			})
		}
	}
	// Heterogeneous spans: runs per span, no stripe histogram.
	bm := bitmap.New(1000)
	churn(bm, block.R(0, 1000), rng)
	targets = append(targets, Target{
		Space: "hetero", Kind: KindRAID, Topo: aa.NewLinear(block.R(0, 1000), 100), Bits: bm,
		DeviceSpans: []block.Range{block.R(0, 300), block.R(300, 1000)},
	})
	// HBPS spaces whose last AA is truncated, an empty and a full one.
	for _, size := range []uint64{1, 64, 1000, 70000} {
		aged, full := bitmap.New(size), bitmap.New(size)
		churn(aged, block.R(0, block.VBN(size)), rng)
		full.SetRange(block.R(0, block.VBN(size)))
		for i, bm := range []*bitmap.Bitmap{aged, bitmap.New(size), full} {
			targets = append(targets, Target{
				Space: fmt.Sprintf("hbps.%s.%d", []string{"aged", "empty", "full"}[i], size), Kind: KindHBPS,
				Topo: aa.NewLinear(block.R(0, block.VBN(size)), 4096), Bits: bm,
			})
		}
	}
	for _, tg := range targets {
		got, want := Scan(tg, 9), refScan(tg, 9)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tg.Space, got, want)
		}
		if tg.Kind == KindRAID && tg.Space != "hetero" && got.StripeHist == nil {
			t.Errorf("%s: no stripe histogram", tg.Space)
		}
	}
	if empty, full := Scan(targets[len(targets)-2], 1), Scan(targets[len(targets)-1], 1); empty.Runs != 1 || empty.LongestRun != 70000 || full.Runs != 0 {
		t.Fatalf("empty space in %d runs, longest %d; full space in %d", empty.Runs, empty.LongestRun, full.Runs)
	}
}

// Reports share one RunBounds slice, so nothing may write through it.
func TestRunBoundsShared(t *testing.T) {
	want := slices.Clone(runBounds)
	bm := bitmap.New(256)
	rep := Scan(Target{Space: "s", Kind: KindHBPS, Topo: aa.NewLinear(block.R(0, 256), 64), Bits: bm}, 1)
	rec := NewRecorder()
	rec.Record(rep)
	if err := rec.WriteCSV(io.Discard); err != nil {
		t.Fatal(err)
	}
	rec.Summaries()
	if _, err := json.Marshal(rec.Reports()); err != nil {
		t.Fatal(err)
	}
	for i, b := range want {
		if b != 1<<i || runBounds[i] != b || rep.RunBounds[i] != b {
			t.Fatalf("bound %d: want %d, shared %d, report %d", i, b, runBounds[i], rep.RunBounds[i])
		}
	}
	if len(rep.RunCounts) != len(want)+1 {
		t.Fatalf("%d run counts for %d bounds", len(rep.RunCounts), len(want))
	}
}

// Record and Last keep per-space state instead of reading every row; Seq and
// Last must stay what the row scan made them, whatever the arrival order.
func TestRecorderSeqAndLast(t *testing.T) {
	rec := NewRecorder()
	var rows []Report // the reference: every row, read per call
	record := func(space string, cp uint64) {
		rep := Report{Space: space, CP: cp, Deciles: make([]float64, 11)}
		rec.Record(rep)
		for _, old := range rows {
			if old.Space == space && old.CP == cp {
				rep.Seq++
			}
		}
		rows = append(rows, rep)
	}
	rng := rand.New(rand.NewSource(3))
	spaces := []string{"a", "b", "c"}
	for i := 0; i < 400; i++ {
		// Interleaved spaces, CPs mostly rising with repeats, and now and
		// then one from the past, itself repeated.
		cp := uint64(i / 7)
		if rng.Intn(10) == 0 {
			cp = uint64(rng.Intn(i/7 + 1))
		}
		record(spaces[rng.Intn(len(spaces))], cp)
	}
	record("late", 5)
	record("late", 2)
	record("late", 2)
	record("late", 5)

	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Space != b.Space {
			return a.Space < b.Space
		}
		if a.CP != b.CP {
			return a.CP < b.CP
		}
		return a.Seq < b.Seq
	})
	if got := rec.Reports(); !reflect.DeepEqual(got, rows) {
		t.Fatalf("reports differ from the row-scan reference")
	}
	for _, space := range append(spaces, "late") {
		var want Report
		for _, rep := range rows { // canonical order: the last one is the newest
			if rep.Space == space {
				want = rep
			}
		}
		if got, ok := rec.Last(space); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Last(%s) = (%d,%d),%v, want (%d,%d)", space, got.CP, got.Seq, ok, want.CP, want.Seq)
		}
	}
	if last, _ := rec.Last("late"); last.CP != 5 || last.Seq != 1 {
		t.Fatalf("Last(late) = (%d,%d), want (5,1)", last.CP, last.Seq)
	}
	if _, ok := rec.Last("nowhere"); ok {
		t.Fatal("Last of an unknown space")
	}
}
