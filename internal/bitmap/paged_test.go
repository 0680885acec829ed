package bitmap

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"waflfs/internal/block"
)

// flat is the layout the pages replaced: one word slice over the whole
// space, with the per-bit definitions of what the bitmap answers.
type flat struct {
	n     uint64
	words []uint64
}

func newFlat(n uint64) *flat { return &flat{n: n, words: make([]uint64, (n+63)/64)} }

func (f *flat) set(v uint64)       { f.words[v/64] |= 1 << (v % 64) }
func (f *flat) test(v uint64) bool { return f.words[v/64]>>(v%64)&1 == 1 }

func (f *flat) countFree(r block.Range) uint64 {
	var n uint64
	for v := uint64(r.Start); v < min(uint64(r.End), f.n); v++ {
		if !f.test(v) {
			n++
		}
	}
	return n
}

func (f *flat) nextFree(v uint64, r block.Range) (block.VBN, bool) {
	for v = max(v, uint64(r.Start)); v < min(uint64(r.End), f.n); v++ {
		if !f.test(v) {
			return block.VBN(v), true
		}
	}
	return block.InvalidVBN, false
}

func (f *flat) runHist(r block.Range) RunHist {
	var h RunHist
	run := uint64(0)
	for v := uint64(r.Start); v <= min(uint64(r.End), f.n); v++ {
		if v < min(uint64(r.End), f.n) && !f.test(v) {
			run++
			continue
		}
		if run > 0 {
			h.Runs++
			h.Blocks += run
			h.Longest = max(h.Longest, run)
			h.Log2[min(bits.Len64(run-1), len(h.Log2)-1)]++
		}
		run = 0
	}
	return h
}

// A 2048-page bitmap with one block set holds that one page, and what it
// answers over untouched pages, and across from them into the written one,
// is what the flat layout answers.
func TestUntouchedPagesReadAsFree(t *testing.T) {
	const pages = 2048
	n := uint64(pages*block.BitsPerBitmapBlock - 1000)
	b, ref := New(n), newFlat(n)
	v := uint64(700*block.BitsPerBitmapBlock + 4321)
	b.Set(block.VBN(v))
	ref.set(v)
	if st := b.Stats(); st.PagesHeld != 1 {
		t.Fatalf("%d pages held after one Set, want 1", st.PagesHeld)
	}
	first := func(p uint64) block.VBN { return block.VBN(p * block.BitsPerBitmapBlock) }
	ranges := []block.Range{
		block.R(0, first(3)),                  // untouched only
		block.R(first(699)+17, first(702)-5),  // across the written page
		block.R(block.VBN(v), block.VBN(v+1)), // the one used block
		block.R(first(2040)+3, block.VBN(n)),  // the ragged last page
	}
	for _, r := range ranges {
		if got, want := b.CountFree(r), ref.countFree(r); got != want {
			t.Fatalf("CountFree(%v) = %d, flat %d", r, got, want)
		}
		for _, from := range []uint64{uint64(r.Start), uint64(r.Start) + 5, v, v + 1} {
			gv, gok := b.NextFree(block.VBN(from), r)
			wv, wok := ref.nextFree(from, r)
			if gv != wv || gok != wok {
				t.Fatalf("NextFree(%d, %v) = %v %v, flat %v %v", from, r, gv, gok, wv, wok)
			}
		}
		var h RunHist
		b.FreeRunHist(r, &h)
		if want := ref.runHist(r); h != want {
			t.Fatalf("FreeRunHist(%v):\n got %+v\nwant %+v", r, h, want)
		}
	}
	// The whole space: one used block between two free runs.
	whole := block.R(0, block.VBN(n))
	var h RunHist
	b.FreeRunHist(whole, &h)
	if f := b.CountFree(whole); f != n-1 || h.Runs != 2 || h.Blocks != n-1 || h.Longest != n-1-v {
		t.Fatalf("whole space: %d free, runs %+v", f, h)
	}
	for _, x := range []uint64{0, v - 10, v, v + 1, n - 1} {
		if b.Test(block.VBN(x)) != ref.test(x) {
			t.Fatalf("Test(%d) = %v, flat %v", x, b.Test(block.VBN(x)), ref.test(x))
		}
	}
	// One run per device segment, six devices, as a striped AA is scored:
	// word-aligned, page-crossing and whole-page runs.
	for _, c := range []struct{ start, run, stride uint64 }{
		{uint64(first(690)), 128, 1 << 20},
		{uint64(first(699)) + 64*500, 1024, 1 << 15},
		{uint64(first(100)) + 3, 2 * block.BitsPerBitmapBlock, 1 << 21},
		{v - 100, 200, 1 << 18},
	} {
		got := b.CountFreeStrided(block.VBN(c.start), c.run, c.stride, 6)
		var want uint64
		for k := uint64(0); k < 6; k++ {
			s := c.start + k*c.stride
			want += ref.countFree(block.R(block.VBN(s), block.VBN(s+c.run)))
		}
		if got != want {
			t.Fatalf("CountFreeStrided(%d, %d, %d, 6) = %d, flat %d", c.start, c.run, c.stride, got, want)
		}
	}
	if st := b.Stats(); st.PagesHeld != 1 || zeroPage != (page{}) {
		t.Fatalf("reads gave %d pages storage, or wrote the zero page", st.PagesHeld)
	}
}

// Two bitmaps mutated on two goroutines share only the zero page, which no
// write reaches: not a bulk clear over an untouched page, not a take that
// gives one its storage. Under -race a store to it is a reported race.
func TestTwoBitmapsMutateConcurrently(t *testing.T) {
	const n = 8 * block.BitsPerBitmapBlock
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, rng := New(n), rand.New(rand.NewSource(int64(g)))
			var dst []block.VBN
			for range 200 {
				lo := block.VBN(rng.Intn(n))
				r := block.R(lo, lo+block.VBN(rng.Intn(3*block.BitsPerBitmapBlock)))
				switch rng.Intn(5) {
				case 0:
					b.ClearRange(r)
				case 1:
					b.SetRange(block.R(lo, lo+block.VBN(rng.Intn(100))))
				case 2:
					dst, _ = b.TakeFree(dst[:0], lo, r, rng.Intn(200))
				case 3:
					b.Clear(lo)
				case 4:
					b.Set(lo)
				}
				b.CountFree(r)
				b.Clone()
			}
		}()
	}
	wg.Wait()
	if zeroPage != (page{}) {
		t.Fatal("the zero page was written")
	}
}
