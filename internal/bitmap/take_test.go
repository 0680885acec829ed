package bitmap_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"waflfs/internal/bitmap"
	"waflfs/internal/block"
)

// refTakeFree is TakeFree as the allocator used to spell it: NextFree to the
// next free block, Set it, step past it.
func refTakeFree(b *bitmap.Bitmap, dst []block.VBN, from block.VBN, r block.Range, want int) ([]block.VBN, block.VBN) {
	v := from
	for range want {
		free, ok := b.NextFree(v, r)
		if !ok {
			return dst, r.End
		}
		b.Set(free)
		dst = append(dst, free)
		v = free + 1
	}
	return dst, v
}

// observe is everything a bitmap's caller can observe: every bit, the used
// count, each page's used count (CountUsed answers a whole page from its
// running count), the dirty pages and the lifetime counters.
func observe(b *bitmap.Bitmap) string {
	words := make([]uint64, 0, b.Size()/64+1)
	for v := uint64(0); v < b.Size(); v += 64 {
		words = append(words, b.FreeWord(block.VBN(v), 64))
	}
	pages := make([]uint64, b.Pages())
	for p := range pages {
		lo := uint64(p) * block.BitsPerBitmapBlock
		pages[p] = b.CountUsed(block.R(block.VBN(lo), block.VBN(lo+block.BitsPerBitmapBlock)))
	}
	return fmt.Sprintf("words %x\nused %d pages %v dirty %v stats %+v",
		words, b.Used(), pages, b.DirtyPageList(), b.Stats())
}

// ageBy ages b by one of five patterns, the way the other fuzzers here do.
func ageBy(b *bitmap.Bitmap, pattern, param uint64, rng *rand.Rand) {
	size := b.Size()
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
	case 4: // short used runs between long free ones
		for v := uint64(0); v < size; {
			v += 1 + uint64(rng.Intn(int(param)+1))
			b.SetRange(block.R(block.VBN(v), block.VBN(v+1+uint64(rng.Intn(3)))))
			v += 3
		}
	}
	b.Flush()
}

// FuzzTakeFree: for any bitmap size and fill, TakeFree takes the blocks a
// NextFree+Set loop takes, in the same order, returns the same next and
// leaves the same bits, counts and dirty pages — from unaligned starts, over
// ranges crossing metafile pages or reaching past the end, with want 0 or
// more than the range holds. SetMask sets what per-bit Set sets, a mask
// straddling two words or two pages included, and when a bit it names is
// allocated or past the end it panics and changes nothing. Pattern 5 is a
// sparseBitmap, whose untouched pages a take gives storage.
func FuzzTakeFree(f *testing.F) {
	// The tape: pattern, size (2), fill parameter, fill seed, from (3), range
	// start (3), range length (2), want (2), mask seed, mask mode, mask start
	// (3); for pattern 5, sparseBitmap's bytes in place of size, fill
	// parameter and seed. A position is a<<9 + b<<1 + c&1.
	for pattern := byte(0); pattern < 5; pattern++ {
		f.Add([]byte{pattern, 100, 0, 128, 9, 0, 18, 1, 0, 15, 0, 1, 0, 9, 2, 7, 0, 0, 25, 1})              // mid-word start
		f.Add([]byte{pattern, 255, 255, 100, 9, 127, 250, 0, 127, 240, 0, 2, 0, 255, 3, 3, 1, 127, 251, 0}) // across a page
		f.Add([]byte{pattern, 255, 255, 100, 9, 63, 251, 0, 63, 0, 0, 4, 0, 255, 3, 5, 0, 63, 251, 0})      // straddling words of two pages
		f.Add([]byte{pattern, 10, 0, 128, 9, 9, 0, 0, 9, 0, 0, 255, 255, 255, 0, 4, 1, 9, 250, 1})          // past the end
		f.Add([]byte{pattern, 10, 0, 128, 9, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 4, 0})                          // want 0
	}
	f.Add([]byte{5, 0, 0, 0, 0, 9, 9, 60, 0, 0, 60, 0, 0, 250, 0, 255, 8, 5, 2, 100, 0, 0})  // three pages, taken into the untouched one
	f.Add([]byte{5, 5, 9, 1, 2, 1, 3, 127, 250, 0, 127, 250, 0, 9, 0, 99, 4, 9, 0, 0, 9, 1}) // eight pages, a take crossing pages
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp := tape(data)
		pattern := tp.next() % 6
		var src *bitmap.Bitmap
		if pattern == 5 {
			src = sparseBitmap(&tp)
			src.Flush()
		} else {
			// Up to 130816 blocks: four metafile pages, most sizes multiples
			// of neither 64 nor 32768.
			src = bitmap.New(1 + tp.next()<<9 + tp.next())
			ageBy(src, pattern, tp.next(), rand.New(rand.NewSource(int64(tp.next()))))
		}
		size := src.Size()
		pos := func(mod uint64) uint64 { return (tp.next()<<9 + tp.next()<<1 + tp.next()&1) % mod }
		from := block.VBN(pos(size + 100))
		rs := pos(size + 100)
		r := block.R(block.VBN(rs), block.VBN(rs+tp.next()<<8+tp.next()))
		want := int(tp.next()<<(tp.next()%10)) - 1

		b, ref := src.Clone(), src.Clone()
		wantOut, wantNext := refTakeFree(ref, []block.VBN{7}, from, r, want)
		gotOut, gotNext := b.TakeFree([]block.VBN{7}, from, r, want)
		if !slices.Equal(gotOut, wantOut) || gotNext != wantNext {
			t.Fatalf("size %d from %d range %v want %d: took %v next %d, reference took %v next %d",
				size, from, r, want, gotOut, gotNext, wantOut, wantNext)
		}
		if got, want := observe(b), observe(ref); got != want {
			t.Fatalf("size %d from %d range %v: after TakeFree\n%s\nreference\n%s", size, from, r, got, want)
		}

		rng := rand.New(rand.NewSource(int64(tp.next())))
		legal := tp.next()%2 == 0
		start := block.VBN(pos(size + 64))
		mask := rng.Uint64() >> rng.Intn(64) << rng.Intn(64)
		if legal {
			mask &= b.FreeWord(start, 64)
		}
		clash := false
		for i := uint64(0); i < 64; i++ {
			if mask>>i&1 == 1 && (uint64(start)+i >= size || ref.Test(start+block.VBN(i))) {
				clash = true
			}
		}
		before := observe(b)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			b.SetMask(start, mask)
			return false
		}()
		if panicked != clash {
			t.Fatalf("size %d SetMask(%d, %#x): panicked %v, clashes with an allocated block %v", size, start, mask, panicked, clash)
		}
		if clash {
			if got := observe(b); got != before {
				t.Fatalf("size %d SetMask(%d, %#x) panicked but changed the bitmap", size, start, mask)
			}
			return
		}
		for i := uint64(0); i < 64; i++ {
			if mask>>i&1 == 1 {
				ref.Set(start + block.VBN(i))
			}
		}
		if got, want := observe(b), observe(ref); got != want {
			t.Fatalf("size %d SetMask(%d, %#x):\n%s\nper-bit Set\n%s", size, start, mask, got, want)
		}
	})
}

// BenchmarkTakeFree prices taking 64 blocks at a time from a bitmap 60% used,
// by TakeFree and by the NextFree+Set loop it replaced.
func BenchmarkTakeFree(b *testing.B) {
	const n = 1 << 20
	src := bitmap.New(n)
	ageBy(src, 0, 153, rand.New(rand.NewSource(1)))
	for _, arm := range []struct {
		name string
		take func(*bitmap.Bitmap, []block.VBN, block.VBN, block.Range, int) ([]block.VBN, block.VBN)
	}{{"words", (*bitmap.Bitmap).TakeFree}, {"reference", refTakeFree}} {
		b.Run(arm.name, func(b *testing.B) {
			bm, buf := src.Clone(), make([]block.VBN, 0, 64)
			r := block.R(0, n)
			var next block.VBN
			for i := 0; i < b.N; i++ {
				if next >= r.End {
					b.StopTimer()
					bm, next = src.Clone(), 0
					b.StartTimer()
				}
				buf, next = arm.take(bm, buf[:0], next, r, 64)
			}
		})
	}
}
