package bitmap_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// refForEachFreeRun is the run walker ForEachFreeRun replaced: two word scans
// per run, NextFree to its start and NextUsed to its end. It is kept as the
// benchmarks' reference arm.
func refForEachFreeRun(b *bitmap.Bitmap, r block.Range, fn func(run block.Range) bool) {
	r.End = min(r.End, block.VBN(b.Size()))
	pos := r.Start
	for {
		start, ok := b.NextFree(pos, r)
		if !ok {
			return
		}
		endUsed, ok := b.NextUsed(start, r)
		if !ok {
			fn(block.Range{Start: start, End: r.End})
			return
		}
		if !fn(block.Range{Start: start, End: endUsed}) {
			return
		}
		pos = endUsed
	}
}

// histOf folds runs into the RunHist they should produce.
func histOf(runs []block.Range) bitmap.RunHist {
	var h bitmap.RunHist
	for _, run := range runs {
		l := run.Len()
		h.Runs++
		h.Blocks += l
		h.Longest = max(h.Longest, l)
		h.Log2[min(bits.Len64(l-1), len(h.Log2)-1)]++
	}
	return h
}

// bitRuns finds the free runs of r one Test call per block.
func bitRuns(b *bitmap.Bitmap, r block.Range) []block.Range {
	var runs []block.Range
	end := min(r.End, block.VBN(b.Size()))
	for v := r.Start; v < end; v++ {
		if b.Test(v) {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].End == v {
			runs[n-1].End = v + 1
		} else {
			runs = append(runs, block.Range{Start: v, End: v + 1})
		}
	}
	return runs
}

// tape hands out the fuzzer's bytes; an exhausted tape reads as zeroes.
type tape []byte

func (t *tape) next() uint64 {
	if len(*t) == 0 {
		return 0
	}
	b := (*t)[0]
	*t = (*t)[1:]
	return uint64(b)
}

// sparseBitmap draws a bitmap of 3 to 10 metafile pages, its last one
// ragged, written on the pages a 16-bit mask selects and untouched on the
// rest: the first and last pages are always written and the second never, so
// untouched pages sit between written ones. A written page gets used runs of
// 1 to 8 blocks with free gaps of up to gap blocks.
func sparseBitmap(tp *tape) *bitmap.Bitmap {
	pages := 3 + tp.next()%8
	size := pages*block.BitsPerBitmapBlock - tp.next()<<7
	mask := (tp.next()<<8 | tp.next() | 1 | 1<<(pages-1)) &^ 2
	gap := 1 + tp.next()<<2
	rng := rand.New(rand.NewSource(int64(tp.next())))
	b := bitmap.New(size)
	for p := uint64(0); p < pages; p++ {
		if mask>>p&1 == 0 {
			continue
		}
		end := min((p+1)*block.BitsPerBitmapBlock, size)
		for v := p * block.BitsPerBitmapBlock; v < end; {
			v += uint64(rng.Intn(int(gap)))
			n := 1 + uint64(rng.Intn(8))
			b.SetRange(block.R(block.VBN(v), block.VBN(min(v+n, end))))
			v += n
		}
	}
	return b
}

// FuzzFreeRuns: for any bitmap size, fill pattern and range — unaligned, empty
// or running past the bitmap — the word-walking ForEachFreeRun, FreeRunHist
// and a block-by-block Test loop agree on every run and on every RunHist
// field, the NextFree/NextUsed walker too, and fn returning false stops the
// walk. Pattern 7 is a sparseBitmap, with ranges over its first four pages.
func FuzzFreeRuns(f *testing.F) {
	for pattern := byte(0); pattern < 7; pattern++ {
		f.Add([]byte{pattern, 3, 200, 0, 5, 1, 90, 7, 7, 7, 7})
		f.Add([]byte{pattern, 255, 255, 0, 63, 255, 255, 130, 9, 250, 3})
	}
	f.Add([]byte{7, 0, 9, 0, 5, 3, 2, 0, 0, 255, 255, 255, 7})      // three pages, across the untouched one
	f.Add([]byte{7, 7, 40, 255, 250, 200, 4, 128, 0, 250, 0, 9, 9}) // ten pages, a ragged last one
	f.Add([]byte{0, 0, 64, 0, 0, 0, 64})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp := tape(data)
		pattern := tp.next() % 8
		if pattern == 7 {
			checkFreeRuns(t, sparseBitmap(&tp), pattern, &tp)
			return
		}
		// Up to 65790 blocks: past two metafile pages, most sizes multiples of
		// neither 64 nor 32768.
		size := 1 + tp.next()<<8 + tp.next() + tp.next()
		b := bitmap.New(size)
		rng := rand.New(rand.NewSource(int64(tp.next())))
		switch pattern {
		case 0: // random density
			density := float64(tp.next()) / 255
			for v := uint64(0); v < size; v++ {
				if rng.Float64() < density {
					b.Set(block.VBN(v))
				}
			}
		case 1: // all free
		case 2: // all used
			b.SetRange(block.R(0, block.VBN(size)))
		case 3: // long free runs, most spanning three or more words
			for v := uint64(0); v < size; {
				v += 130 + uint64(rng.Intn(300))
				n := 1 + uint64(rng.Intn(3))
				b.SetRange(block.R(block.VBN(v), block.VBN(v+n)))
				v += n
			}
		case 4: // runs ending at bit 63
			for w := uint64(0); w*64 < size; w++ {
				b.SetRange(block.R(block.VBN(w*64), block.VBN(w*64+1+uint64(rng.Intn(62)))))
			}
		case 5: // runs starting at bit 0
			for w := uint64(0); w*64 < size; w++ {
				b.SetRange(block.R(block.VBN(w*64+1+uint64(rng.Intn(62))), block.VBN(w*64+64)))
			}
		case 6: // alternating bits
			for v := tp.next() % 2; v < size; v += 2 {
				b.Set(block.VBN(v))
			}
		}
		checkFreeRuns(t, b, pattern, &tp)
	})
}

// checkFreeRuns is FuzzFreeRuns' check of one bitmap, over a range the tape
// draws.
func checkFreeRuns(t *testing.T, b *bitmap.Bitmap, pattern uint64, tp *tape) {
	size := b.Size()
	start := (tp.next()<<8 + tp.next()) % (size + 1)
	r := block.R(block.VBN(start), block.VBN(start+tp.next()<<8+tp.next()+tp.next()))
	want := bitRuns(b, r)
	var got []block.Range
	b.ForEachFreeRun(r, func(run block.Range) bool {
		got = append(got, run)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("pattern %d size %d range %v: %d runs, want %d", pattern, size, r, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pattern %d size %d range %v: run %d = %v, want %v", pattern, size, r, i, got[i], want[i])
		}
	}
	i := 0
	refForEachFreeRun(b, r, func(run block.Range) bool {
		if i >= len(want) || run != want[i] {
			t.Fatalf("pattern %d size %d range %v: reference run %d = %v", pattern, size, r, i, run)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("pattern %d size %d range %v: reference made %d runs, want %d", pattern, size, r, i, len(want))
	}
	var whole bitmap.RunHist
	b.FreeRunHist(r, &whole)
	if wantH := histOf(want); whole != wantH {
		t.Fatalf("pattern %d size %d range %v:\n got %+v\nwant %+v", pattern, size, r, whole, wantH)
	}
	// A RunHist accumulates: start from a nonzero one.
	h := histOf(want[:len(want)/2])
	split := want[len(want)/2:]
	if len(split) > 0 {
		b.FreeRunHist(block.Range{Start: split[0].Start, End: r.End}, &h)
	}
	if h != whole {
		t.Fatalf("pattern %d size %d range %v: in two parts\n got %+v\nwant %+v", pattern, size, r, h, whole)
	}
	if got := b.LongestFreeRun(r); got != whole.Longest {
		t.Fatalf("pattern %d size %d range %v: LongestFreeRun %d", pattern, size, r, got)
	}
	if len(want) > 1 {
		stopAt, calls := int(tp.next())%(len(want)-1)+1, 0
		b.ForEachFreeRun(r, func(block.Range) bool { calls++; return calls < stopAt })
		if calls != stopAt {
			t.Fatalf("pattern %d size %d range %v: fn said stop at call %d, walk made %d", pattern, size, r, stopAt, calls)
		}
	}
}

// agedBitmap is ssd_overwrite's aggregate at an eighth of its size, filled and
// then churned by workload.RandomOverwrite with a CP every 4096 ops.
func agedBitmap() *bitmap.Bitmap {
	g := wafl.GroupSpec{
		DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 13,
		Media: aa.MediaSSD, EraseBlockBlocks: 512, Overprovision: 0.08,
	}
	tun := wafl.DefaultTunables()
	tun.Workers = 1
	tun.CPEveryOps = 4096
	lunBlocks := uint64(float64(2*6*g.BlocksPerDevice) * 0.55)
	s := wafl.NewSystem([]wafl.GroupSpec{g, g}, []wafl.VolSpec{{Name: "v", Blocks: 2 * lunBlocks}}, tun, 7)
	lun := s.Agg.Vols()[0].CreateLUN("l", lunBlocks)
	workload.SequentialFill(s, lun, 1)
	workload.RandomOverwrite(s, []*wafl.LUN{lun}, rand.New(rand.NewSource(8)), int(1.2*float64(lunBlocks)), 1)
	s.CP()
	s.Drain()
	return s.Agg.Bitmap()
}

// runSink keeps the benchmarked walks from being optimized away.
var runSink uint64

// BenchmarkFreeRuns prices one pass over a bitmap's free runs three ways:
// FreeRunHist, which counts them by length class, ForEachFreeRun, which
// visits them, and the NextFree/NextUsed walker both replaced.
func BenchmarkFreeRuns(b *testing.B) {
	const n = 1 << 20
	random := bitmap.New(n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.6 {
			random.Set(block.VBN(i))
		}
	}
	full := bitmap.New(n)
	full.SetRange(block.R(0, n))
	for _, fill := range []struct {
		name string
		bm   *bitmap.Bitmap
	}{
		{"random60", random},
		{"aged", agedBitmap()},
		{"empty", bitmap.New(n)},
		{"full", full},
	} {
		r := block.R(0, block.VBN(fill.bm.Size()))
		count := func(run block.Range) bool { runSink += run.Len(); return true }
		b.Run(fill.name+"/FreeRunHist", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var h bitmap.RunHist
				fill.bm.FreeRunHist(r, &h)
				runSink += h.Runs
			}
		})
		b.Run(fill.name+"/ForEachFreeRun", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fill.bm.ForEachFreeRun(r, count)
			}
		})
		b.Run(fill.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refForEachFreeRun(fill.bm, r, count)
			}
		})
	}
}
