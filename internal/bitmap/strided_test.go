package bitmap_test

import (
	"math/rand"
	"testing"

	"waflfs/internal/bitmap"
	"waflfs/internal/block"
)

// stridedRef is CountFreeStrided as its definition reads: one CountFree per
// run.
func stridedRef(b *bitmap.Bitmap, start block.VBN, run, stride uint64, n int) uint64 {
	var free uint64
	for k := uint64(0); k < uint64(n); k++ {
		from := start + block.VBN(k*stride)
		free += b.CountFree(block.R(from, from+block.VBN(run)))
	}
	return free
}

// FuzzCountFreeStrided: for any bitmap size, fill pattern, start, run length,
// stride and run count — word-aligned or not, runs crossing metafile pages or
// holding whole ones, runs reaching past the bitmap's end — the strided count
// equals the sum of the per-run CountFree calls it replaces. Pattern 5 is a
// sparseBitmap, whose untouched pages the runs cross.
func FuzzCountFreeStrided(f *testing.F) {
	// The tape: pattern, aligned, size (2), fill seed, fill parameter, start
	// (2), run (3), stride (3), n; for pattern 5, sparseBitmap's bytes in
	// place of size.
	for pattern := byte(0); pattern < 5; pattern++ {
		f.Add([]byte{pattern, 1, 100, 0, 9, 128, 0, 70, 1, 7, 0, 16, 9, 0, 6})    // word-aligned runs
		f.Add([]byte{pattern, 0, 100, 0, 9, 128, 0, 37, 100, 0, 0, 200, 5, 3, 5}) // mid-word starts
		f.Add([]byte{pattern, 0, 255, 255, 9, 128, 1, 0, 80, 9, 0, 64, 9, 0, 3})  // whole-page runs
		f.Add([]byte{pattern, 0, 10, 0, 9, 128, 9, 0, 200, 4, 0, 255, 3, 0, 19})  // past the end
		f.Add([]byte{pattern, 1, 10, 0, 9, 128, 9, 0, 200, 4, 0, 255, 3, 0, 19})  // aligned, past the end
	}
	f.Add([]byte{5, 1, 0, 0, 0, 5, 9, 3, 0, 0, 0, 0, 128, 8, 0, 128, 8, 0, 3})    // three pages, one run each
	f.Add([]byte{5, 0, 7, 30, 1, 200, 9, 3, 9, 9, 1, 9, 200, 0, 3, 150, 9, 1, 4}) // ten pages, strided across them
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp := tape(data)
		pattern := tp.next() % 6
		aligned := tp.next()%2 == 1
		var b *bitmap.Bitmap
		if pattern == 5 {
			b = sparseBitmap(&tp)
		} else {
			// Up to 130816 blocks: four metafile pages, most sizes multiples
			// of neither 64 nor 32768.
			b = bitmap.New(1 + tp.next()<<9 + tp.next())
		}
		size := b.Size()
		rng := rand.New(rand.NewSource(int64(tp.next())))
		param := tp.next()
		switch pattern {
		case 0: // random density
			density := float64(param) / 255
			for v := uint64(0); v < size; v++ {
				if rng.Float64() < density {
					b.Set(block.VBN(v))
				}
			}
		case 1: // all free
		case 2: // all used
			b.SetRange(block.R(0, block.VBN(size)))
		case 3: // alternating bits
			for v := param % 2; v < size; v += 2 {
				b.Set(block.VBN(v))
			}
		case 4: // used and free pages by halves
			for v := uint64(0); v < size; v += block.BitsPerBitmapBlock {
				b.SetRange(block.R(block.VBN(v), block.VBN(v+block.BitsPerBitmapBlock/2)))
			}
		}
		start := (tp.next()<<9 + tp.next()) % (size + 1)
		run := tp.next()<<(tp.next()%10) + tp.next()
		stride := tp.next()<<(tp.next()%10) + tp.next()
		n := int(tp.next() % 20)
		if aligned {
			start, run, stride = start&^63, run&^63, stride&^63
		}
		got := b.CountFreeStrided(block.VBN(start), run, stride, n)
		if want := stridedRef(b, block.VBN(start), run, stride, n); got != want {
			t.Fatalf("pattern %d size %d start %d run %d stride %d n %d: %d free, want %d",
				pattern, size, start, run, stride, n, got, want)
		}
	})
}

// BenchmarkCountFreeStrided prices scoring one mount_cycle-shaped striped AA
// (six devices, 128 stripes) by the strided count and by a CountFree per
// device segment, on a bitmap 60% used.
func BenchmarkCountFreeStrided(b *testing.B) {
	const per, devices, stripes = 1 << 17, 6, 128
	bm := bitmap.New(devices * per)
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < devices*per; v++ {
		if rng.Float64() < 0.6 {
			bm.Set(block.VBN(v))
		}
	}
	b.Run("strided", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSink += bm.CountFreeStrided(block.VBN(i%1024*stripes), stripes, per, devices)
		}
	})
	b.Run("per_segment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSink += stridedRef(bm, block.VBN(i%1024*stripes), stripes, per, devices)
		}
	})
}
