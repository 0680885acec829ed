package bitmap

import (
	"math/rand"
	"testing"

	"waflfs/internal/block"
)

// benchSink defeats dead-code elimination of the measured calls.
var benchSink uint64

// populatedBitmap builds an n-bit bitmap with roughly frac of its bits set
// at random positions, flushed so the benchmarks start clean.
func populatedBitmap(n uint64, frac float64, seed int64) *Bitmap {
	b := New(n)
	rng := rand.New(rand.NewSource(seed))
	for i := uint64(0); i < uint64(float64(n)*frac); i++ {
		b.Set(block.VBN(rng.Int63n(int64(n))))
	}
	b.Flush()
	return b
}

// BenchmarkCountUsed measures the range count behind AA scoring — the inner
// loop of every cache rebuild and mount-time fallback — over a range that is
// ragged at both ends, so it pays the per-page sum plus two partial pages
// (the whole bitmap would be answered from the running total).
func BenchmarkCountUsed(b *testing.B) {
	bm := populatedBitmap(1<<22, 0.5, 1)
	r := block.R(100, block.VBN(bm.Size()-100))
	b.SetBytes(int64(bm.Size() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = bm.CountUsed(r)
	}
}

// BenchmarkNextFree measures the allocation cursor's word-level scan on a
// nearly full space, where most words must be skipped.
func BenchmarkNextFree(b *testing.B) {
	bm := populatedBitmap(1<<22, 0.95, 2)
	r := block.R(0, block.VBN(bm.Size()))
	b.ResetTimer()
	v := block.VBN(0)
	for i := 0; i < b.N; i++ {
		nv, ok := bm.NextFree(v, r)
		if !ok {
			v = 0
			continue
		}
		benchSink = uint64(nv)
		v = nv + 1
		if uint64(v) >= bm.Size() {
			v = 0
		}
	}
}

// BenchmarkBulkRange measures SetRange/ClearRange over one AA-sized run
// (32k blocks) — the bulk path snapshots and zone resets use.
func BenchmarkBulkRange(b *testing.B) {
	bm := New(1 << 22)
	r := block.R(0, block.VBN(block.BitsPerBitmapBlock))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			benchSink = bm.SetRange(r)
		} else {
			benchSink = bm.ClearRange(r)
		}
	}
}
