package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"waflfs/internal/block"
)

func TestNewAllFree(t *testing.T) {
	b := New(100000)
	if b.Size() != 100000 || b.Used() != 0 || b.Free() != 100000 {
		t.Fatalf("fresh bitmap: size=%d used=%d free=%d", b.Size(), b.Used(), b.Free())
	}
	if b.DirtyPages() != 0 {
		t.Fatalf("fresh bitmap has %d dirty pages", b.DirtyPages())
	}
	for _, v := range []block.VBN{0, 1, 63, 64, 99999} {
		if b.Test(v) {
			t.Errorf("block %v allocated in fresh bitmap", v)
		}
	}
}

func TestSetClearTest(t *testing.T) {
	b := New(1 << 16)
	if !b.Set(5) {
		t.Fatal("Set(5) reported no change")
	}
	if b.Set(5) {
		t.Fatal("second Set(5) reported change")
	}
	if !b.Test(5) {
		t.Fatal("Test(5) false after Set")
	}
	if b.Used() != 1 {
		t.Fatalf("Used = %d", b.Used())
	}
	if !b.Clear(5) {
		t.Fatal("Clear(5) reported no change")
	}
	if b.Clear(5) {
		t.Fatal("second Clear(5) reported change")
	}
	if b.Used() != 0 || b.Test(5) {
		t.Fatal("Clear did not free the block")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for name, f := range map[string]func(){
		"Test": func() { b.Test(10) },
		"Set":  func() { b.Set(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(10) on size-10 bitmap did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCountUsedWordBoundaries(t *testing.T) {
	b := New(256)
	for _, v := range []block.VBN{0, 63, 64, 127, 128, 200, 255} {
		b.Set(v)
	}
	cases := []struct {
		r    block.Range
		want uint64
	}{
		{block.R(0, 256), 7},
		{block.R(0, 64), 2},
		{block.R(63, 65), 2},
		{block.R(64, 128), 2},
		{block.R(1, 63), 0},
		{block.R(128, 129), 1},
		{block.R(255, 256), 1},
		{block.R(10, 10), 0},
	}
	for _, c := range cases {
		if got := b.CountUsed(c.r); got != c.want {
			t.Errorf("CountUsed(%v) = %d, want %d", c.r, got, c.want)
		}
		if got := b.CountFree(c.r); got != c.r.Len()-c.want {
			t.Errorf("CountFree(%v) = %d, want %d", c.r, got, c.r.Len()-c.want)
		}
	}
}

func TestCountClampsToSize(t *testing.T) {
	b := New(100)
	b.Set(99)
	if got := b.CountUsed(block.R(0, 1000)); got != 1 {
		t.Fatalf("CountUsed over-extended range = %d", got)
	}
	if got := b.CountFree(block.R(0, 1000)); got != 99 {
		t.Fatalf("CountFree over-extended range = %d", got)
	}
}

// Property: CountUsed over a random range matches a naive per-bit count
// after random mutations.
func TestCountMatchesNaive(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(1))
	b := New(n)
	ref := make([]bool, n)
	for i := 0; i < 20000; i++ {
		v := block.VBN(rng.Intn(n))
		if rng.Intn(2) == 0 {
			b.Set(v)
			ref[v] = true
		} else {
			b.Clear(v)
			ref[v] = false
		}
	}
	var refUsed uint64
	for _, u := range ref {
		if u {
			refUsed++
		}
	}
	if b.Used() != refUsed {
		t.Fatalf("Used = %d, naive = %d", b.Used(), refUsed)
	}
	for i := 0; i < 500; i++ {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		r := block.R(block.VBN(lo), block.VBN(hi))
		var want uint64
		for v := lo; v < hi; v++ {
			if ref[v] {
				want++
			}
		}
		if got := b.CountUsed(r); got != want {
			t.Fatalf("CountUsed(%v) = %d, naive = %d", r, got, want)
		}
	}
}

func TestNextFreeNextUsed(t *testing.T) {
	b := New(200)
	full := block.R(0, 200)
	b.SetRange(block.R(0, 100))
	v, ok := b.NextFree(0, full)
	if !ok || v != 100 {
		t.Fatalf("NextFree(0) = %v,%v", v, ok)
	}
	v, ok = b.NextUsed(50, full)
	if !ok || v != 50 {
		t.Fatalf("NextUsed(50) = %v,%v", v, ok)
	}
	if _, ok = b.NextUsed(100, full); ok {
		t.Fatal("NextUsed(100) should fail")
	}
	if _, ok = b.NextFree(0, block.R(0, 100)); ok {
		t.Fatal("NextFree in fully used subrange should fail")
	}
	// Range-restricted scan starts at range start.
	v, ok = b.NextFree(0, block.R(150, 160))
	if !ok || v != 150 {
		t.Fatalf("NextFree range-start = %v,%v", v, ok)
	}
}

func TestNextFreeWordEdges(t *testing.T) {
	b := New(192)
	// Fill word 0 and word 1 entirely; leave bit 128 free.
	b.SetRange(block.R(0, 128))
	v, ok := b.NextFree(0, block.R(0, 192))
	if !ok || v != 128 {
		t.Fatalf("NextFree across words = %v,%v", v, ok)
	}
	// Free exactly the last bit of a word.
	b.Clear(63)
	v, ok = b.NextFree(0, block.R(0, 192))
	if !ok || v != 63 {
		t.Fatalf("NextFree last-bit-of-word = %v,%v", v, ok)
	}
}

func TestFreeRuns(t *testing.T) {
	b := New(100)
	b.SetRange(block.R(10, 20))
	b.SetRange(block.R(30, 31))
	runs := b.FreeRuns(block.R(0, 100))
	want := []block.Range{block.R(0, 10), block.R(20, 30), block.R(31, 100)}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Errorf("run[%d] = %v, want %v", i, runs[i], want[i])
		}
	}
	if got := b.LongestFreeRun(block.R(0, 100)); got != 69 {
		t.Errorf("LongestFreeRun = %d, want 69", got)
	}
	// Fully used range has no runs.
	if runs := b.FreeRuns(block.R(10, 20)); len(runs) != 0 {
		t.Errorf("FreeRuns of used range = %v", runs)
	}
}

// Property: FreeRuns lengths sum to CountFree and runs are maximal (bounded
// by used blocks or range edges).
func TestFreeRunsProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(1000)
		b := New(uint64(n))
		for i := 0; i < n/2; i++ {
			b.Set(block.VBN(rng.Intn(n)))
		}
		r := block.R(0, block.VBN(n))
		runs := b.FreeRuns(r)
		var sum uint64
		prevEnd := block.VBN(0)
		for _, run := range runs {
			if run.Len() == 0 {
				return false
			}
			if run.Start < prevEnd {
				return false // overlapping or unordered
			}
			// Maximality: block before and after the run must be used
			// (or out of range).
			if run.Start > 0 && !b.Test(run.Start-1) {
				return false
			}
			if uint64(run.End) < uint64(n) && !b.Test(run.End) {
				return false
			}
			sum += run.Len()
			prevEnd = run.End
		}
		return sum == b.CountFree(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyPageTracking(t *testing.T) {
	b := New(3 * block.BitsPerBitmapBlock)
	b.Set(0)
	b.Set(1)
	b.Set(block.BitsPerBitmapBlock) // page 1
	if got := b.DirtyPages(); got != 2 {
		t.Fatalf("DirtyPages = %d, want 2", got)
	}
	// A no-op Set must not dirty a page.
	b.Set(0)
	if got := b.DirtyPages(); got != 2 {
		t.Fatalf("DirtyPages after no-op = %d", got)
	}
	if n := b.Flush(); n != 2 {
		t.Fatalf("Flush = %d", n)
	}
	if b.DirtyPages() != 0 {
		t.Fatal("dirty set not reset by Flush")
	}
	// Re-dirty after flush counts again.
	b.Clear(1)
	if got := b.DirtyPages(); got != 1 {
		t.Fatalf("DirtyPages after re-dirty = %d", got)
	}
	st := b.Stats()
	if st.PagesDirtied != 3 || st.PagesFlushed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChargeScan(t *testing.T) {
	b := New(5 * block.BitsPerBitmapBlock)
	if n := b.ChargeScan(block.R(0, block.VBN(b.Size()))); n != 5 {
		t.Fatalf("full scan = %d pages", n)
	}
	if n := b.ChargeScan(block.R(1, 2)); n != 1 {
		t.Fatalf("tiny scan = %d pages", n)
	}
	if n := b.ChargeScan(block.R(0, block.BitsPerBitmapBlock+1)); n != 2 {
		t.Fatalf("straddling scan = %d pages", n)
	}
	if n := b.ChargeScan(block.R(7, 7)); n != 0 {
		t.Fatalf("empty scan = %d pages", n)
	}
	if st := b.Stats(); st.PageReads != 8 {
		t.Fatalf("PageReads = %d", st.PageReads)
	}
}

func TestSetClearRange(t *testing.T) {
	b := New(1000)
	if n := b.SetRange(block.R(100, 200)); n != 100 {
		t.Fatalf("SetRange = %d", n)
	}
	if n := b.SetRange(block.R(150, 250)); n != 50 {
		t.Fatalf("overlapping SetRange = %d", n)
	}
	if b.Used() != 150 {
		t.Fatalf("Used = %d", b.Used())
	}
	if n := b.ClearRange(block.R(0, 1000)); n != 150 {
		t.Fatalf("ClearRange = %d", n)
	}
	if b.Used() != 0 {
		t.Fatalf("Used after ClearRange = %d", b.Used())
	}
}

func TestClone(t *testing.T) {
	b := New(1000)
	b.SetRange(block.R(0, 500))
	c := b.Clone()
	if c.Used() != 500 || c.DirtyPages() != b.DirtyPages() {
		t.Fatal("clone state mismatch")
	}
	c.Set(600)
	if b.Test(600) {
		t.Fatal("clone mutation leaked into original")
	}
	b.Clear(0)
	if !c.Test(0) {
		t.Fatal("original mutation leaked into clone")
	}
}

// Property: Used() is always consistent with CountUsed over the whole range.
func TestUsedInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		b := New(4096)
		for _, op := range ops {
			v := block.VBN(op % 4096)
			if op%2 == 0 {
				b.Set(v)
			} else {
				b.Clear(v)
			}
		}
		return b.Used() == b.CountUsed(block.R(0, 4096))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCountFreeAA(b *testing.B) {
	// Score one RAID-agnostic AA (32k blocks) — the hot primitive behind
	// batched AA score updates.
	bm := New(1 << 20)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1<<19; i++ {
		bm.Set(block.VBN(rng.Intn(1 << 20)))
	}
	r := block.R(0, block.BitsPerBitmapBlock)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bm.CountFree(r)
	}
}

func BenchmarkSetClear(b *testing.B) {
	bm := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := block.VBN(i & (1<<20 - 1))
		bm.Set(v)
		bm.Clear(v)
	}
}

func TestGrow(t *testing.T) {
	b := New(2 * block.BitsPerBitmapBlock)
	b.Set(5)
	b.Flush()
	oldSize := b.Size()
	b.Grow(oldSize + 3*block.BitsPerBitmapBlock)
	if b.Size() != oldSize+3*block.BitsPerBitmapBlock {
		t.Fatalf("size = %d", b.Size())
	}
	// Existing state survives; new space is free and usable.
	if !b.Test(5) {
		t.Fatal("existing bit lost by grow")
	}
	if b.Test(block.VBN(oldSize)) {
		t.Fatal("grown space not free")
	}
	b.Set(block.VBN(oldSize + 7))
	if b.Used() != 2 {
		t.Fatalf("used = %d", b.Used())
	}
	// The new metafile pages are dirty (they must be persisted).
	if b.DirtyPages() < 3 {
		t.Fatalf("dirty pages = %d after grow", b.DirtyPages())
	}
	// Counting over the grown range works.
	if got := b.CountFree(block.R(block.VBN(oldSize), block.VBN(b.Size()))); got != 3*block.BitsPerBitmapBlock-1 {
		t.Fatalf("grown free = %d", got)
	}
	// Same-size grow is a no-op; shrink panics.
	dirty := b.DirtyPages()
	b.Grow(b.Size())
	if b.DirtyPages() != dirty {
		t.Fatal("no-op grow dirtied pages")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shrink did not panic")
		}
	}()
	b.Grow(1)
}

// Property: the word-level bulk SetRange/ClearRange agree exactly with the
// per-bit loops on counts, content, and dirty pages.
func TestBulkRangeMatchesPerBit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 3 * block.BitsPerBitmapBlock
		fast := New(n)
		slow := New(n)
		perBit := func(b *Bitmap, r block.Range, set bool) uint64 {
			var changed uint64
			for v := r.Start; v < r.End && uint64(v) < b.Size(); v++ {
				if set && b.Set(v) {
					changed++
				}
				if !set && b.Clear(v) {
					changed++
				}
			}
			return changed
		}
		for i := 0; i < 40; i++ {
			lo := rng.Intn(n)
			ln := rng.Intn(n / 4)
			r := block.R(block.VBN(lo), block.VBN(lo+ln))
			set := rng.Intn(2) == 0
			var cf, cs uint64
			if set {
				cf = fast.SetRange(r)
			} else {
				cf = fast.ClearRange(r)
			}
			cs = perBit(slow, r, set)
			if cf != cs || fast.Used() != slow.Used() {
				return false
			}
			if fast.DirtyPages() != slow.DirtyPages() {
				return false
			}
		}
		// Content identical.
		for i := 0; i < 500; i++ {
			v := block.VBN(rng.Intn(n))
			if fast.Test(v) != slow.Test(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetRangeBulk(b *testing.B) {
	bm := New(1 << 22)
	r := block.R(100, 100+block.BitsPerBitmapBlock)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.SetRange(r)
		bm.ClearRange(r)
	}
}

func TestFreeWord(t *testing.T) {
	b := New(200)
	for _, v := range []block.VBN{0, 3, 64, 70, 130, 199} {
		b.Set(v)
	}
	// Every offset and width must agree with per-bit Test.
	for start := block.VBN(0); start < 210; start++ {
		for _, n := range []uint{1, 7, 32, 63, 64} {
			w := b.FreeWord(start, n)
			for i := uint(0); i < 64; i++ {
				v := start + block.VBN(i)
				want := i < n && uint64(v) < b.Size() && !b.Test(v)
				if got := w&(1<<i) != 0; got != want {
					t.Fatalf("FreeWord(%d,%d) bit %d = %v, want %v", start, n, i, got, want)
				}
			}
		}
	}
	if got := b.FreeWord(100, 0); got != 0 {
		t.Errorf("FreeWord(_, 0) = %#x, want 0", got)
	}
}

func TestForEachFreeRunMatchesFreeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := New(4096)
	for i := 0; i < 1500; i++ {
		b.Set(block.VBN(rng.Intn(4096)))
	}
	for _, r := range []block.Range{block.R(0, 4096), block.R(100, 3000), block.R(63, 65)} {
		want := b.FreeRuns(r)
		var got []block.Range
		b.ForEachFreeRun(r, func(run block.Range) bool {
			got = append(got, run)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("range %v: %d runs vs %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("range %v run %d: %v vs %v", r, i, got[i], want[i])
			}
		}
		// Early termination stops after the first run.
		calls := 0
		b.ForEachFreeRun(r, func(block.Range) bool { calls++; return false })
		if len(want) > 0 && calls != 1 {
			t.Fatalf("range %v: early-stop walk made %d calls", r, calls)
		}
	}
}

// Property: CountUsed, which sums per-page counts and popcounts only the
// ragged ends, equals a popcount of the reference bits over whole-bitmap,
// page-aligned, ragged and clamped ranges, after any mix of the mutators
// that maintain the per-page counts — Set, Clear, SetRange, ClearRange,
// Grow — and across Clone.
func TestCountUsedPageSummaryMatchesPopcount(t *testing.T) {
	const page = block.BitsPerBitmapBlock
	rng := rand.New(rand.NewSource(7))
	n := uint64(3*page + 777) // a ragged final page
	b := New(n)
	ref := make([]bool, n)
	setRef := func(r block.Range, val bool) {
		for v := uint64(r.Start); v < uint64(r.End) && v < n; v++ {
			ref[v] = val
		}
	}
	check := func(step int, bm *Bitmap) {
		t.Helper()
		ranges := []block.Range{
			block.R(0, block.VBN(n)),               // whole bitmap
			block.R(0, block.VBN(n+5000)),          // clamped past the end
			block.R(page, block.VBN(n)),            // aligned start, runs to the ragged end
			block.R(page+1, 2*page+1),              // one page's worth, misaligned
			block.R(block.VBN(n)-10, block.VBN(n)), // inside the final page
		}
		for p := uint64(0); p*page < n; p++ { // every single page, as a 32k AA would ask
			ranges = append(ranges, block.R(block.VBN(p*page), block.VBN((p+1)*page)))
		}
		for i := 0; i < 8; i++ { // aligned multi-page and arbitrary ragged ranges
			lo, hi := uint64(rng.Int63n(int64(n))), uint64(rng.Int63n(int64(n+page)))
			if lo > hi {
				lo, hi = hi, lo
			}
			ranges = append(ranges, block.R(block.VBN(lo), block.VBN(hi)),
				block.R(block.VBN(lo/page*page), block.VBN((hi/page+1)*page)))
		}
		for _, r := range ranges {
			var want uint64
			for v := uint64(r.Start); v < uint64(r.End) && v < n; v++ {
				if ref[v] {
					want++
				}
			}
			if got := bm.CountUsed(r); got != want {
				t.Fatalf("step %d: CountUsed(%v) = %d, popcount reference %d", step, r, got, want)
			}
			if got := bm.CountFree(r); got != bm.clampRange(r).Len()-want {
				t.Fatalf("step %d: CountFree(%v) = %d, reference %d", step, r, got, bm.clampRange(r).Len()-want)
			}
		}
	}
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			for i := 0; i < 200; i++ {
				v := block.VBN(rng.Int63n(int64(n)))
				b.Set(v)
				ref[v] = true
			}
		case op < 7:
			for i := 0; i < 200; i++ {
				v := block.VBN(rng.Int63n(int64(n)))
				b.Clear(v)
				ref[v] = false
			}
		case op < 9:
			lo := rng.Int63n(int64(n))
			r := block.R(block.VBN(lo), block.VBN(lo+rng.Int63n(2*page)))
			val := op == 7
			if val {
				b.SetRange(r)
			} else {
				b.ClearRange(r)
			}
			setRef(r, val)
		default:
			n += uint64(rng.Int63n(page / 2))
			b.Grow(n)
			ref = append(ref, make([]bool, n-uint64(len(ref)))...)
		}
		check(step, b)
		if step%50 == 49 {
			check(step, b.Clone())
		}
	}
}
