package wafl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/block"
)

// refAllocateTetris is allocateTetris as the per-block loop it replaced: a
// Set, an append and a ledger entry per free block, stripe by stripe across
// the devices, checking before each position whether max blocks are taken.
func refAllocateTetris(g *Group, bm *bitmap.Bitmap, dst []block.VBN, max int) (out []block.VBN, more bool) {
	if max <= 0 {
		return dst, true
	}
	for !g.curValid {
		if !g.pickAA(bm) {
			return dst, false
		}
	}
	end := min(g.curStripe+block.StripesPerTetris, g.curEnd)
	out, stop := dst, len(dst)+max
	for s := g.curStripe; s < end && len(out) < stop; s++ {
		for d := 0; d < g.geo.DataDevices; d++ {
			if len(out) >= stop {
				end = s
				break
			}
			v := g.geo.VBNOf(d, s)
			if bm.Set(v) {
				out = append(out, v)
				g.deltas.add(g.curAA, -1)
			}
		}
	}
	g.curStripe = end
	if len(out) > len(dst) {
		g.curWrote = true
	}
	if g.curStripe >= g.curEnd {
		g.finishAA(bm)
	}
	g.cpWrites = append(g.cpWrites, out[len(dst):]...)
	return out, true
}

// tetrisRig is one group on its own bitmap, its VBNs starting at an offset
// that is not word-aligned.
func tetrisRig(spec GroupSpec, cache bool, seed int64) (*Group, *bitmap.Bitmap) {
	const start = 1000
	tun := DefaultTunables()
	tun.AggregateCacheEnabled = cache
	g := buildGroup(0, spec, start, tun, rand.New(rand.NewSource(seed)))
	return g, bitmap.New(start + uint64(spec.DataDevices)*spec.BlocksPerDevice + 37)
}

// tetrisState is what a call of allocateTetris leaves behind for the next
// one, in the group and in its bitmap, but for the write set.
func tetrisState(g *Group, bm *bitmap.Bitmap) string {
	ledger := make([]int64, 0, g.deltas.len())
	g.deltas.present.Each(func(id uint64) { ledger = append(ledger, int64(id), g.deltas.get(aa.ID(id))) })
	return fmt.Sprintf("AA %d valid %v stripe %d end %d wrote %v ledger %v used %d dirty %v %+v",
		g.curAA, g.curValid, g.curStripe, g.curEnd, g.curWrote, ledger, bm.Used(), bm.DirtyPageList(), bm.Stats())
}

// TestAllocateTetrisMatchesPerBlock drives the word path and the per-block
// reference side by side over pre-aged bitmaps — one data device, six, and
// more than 64; 2048-stripe SSD AAs and 32760-stripe AZCS AAs, whose tetrises
// straddle bitmap words; a ragged last AA — asking for every count from one
// block to a whole tetris. After every call the output, the cursor, the
// ledger and the write set agree; at every re-age and at the end, every bit.
func TestAllocateTetrisMatchesPerBlock(t *testing.T) {
	shapes := []struct {
		name    string
		stripes uint64
		media   aa.Media
		azcs    bool
	}{
		{"ssd2048", 2048, aa.MediaSSD, false},
		{"azcs32760", 32760, aa.MediaSMR, true},
	}
	for _, devices := range []int{1, 6, 65} {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("D%d/%s", devices, shape.name), func(t *testing.T) {
				spec := GroupSpec{
					DataDevices: devices, ParityDevices: 1, Media: shape.media, AZCS: shape.azcs,
					StripesPerAA: shape.stripes, BlocksPerDevice: 2*shape.stripes + 1001, // a ragged third AA
					EraseBlockBlocks: 512, ZoneBlocks: 16384,
				}
				word, bmWord := tetrisRig(spec, false, 5)
				ref, bmRef := tetrisRig(spec, false, 5)
				rng := rand.New(rand.NewSource(int64(devices)))
				sameBits := func(when string) {
					t.Helper()
					for v := uint64(0); v < bmWord.Size(); v += 64 {
						if a, b := bmWord.FreeWord(block.VBN(v), 64), bmRef.FreeWord(block.VBN(v), 64); a != b {
							t.Fatalf("%s: free word at %d is %#x, reference %#x", when, v, a, b)
						}
					}
				}
				// age frees random runs in both bitmaps, from all used, or to
				// about 40% used the first time.
				age := func() {
					if bmWord.Used() == 0 {
						for v := uint64(0); v < bmWord.Size(); v += 1 + uint64(rng.Intn(4)) {
							bmWord.Set(block.VBN(v))
							bmRef.Set(block.VBN(v))
						}
					}
					for v := uint64(rng.Intn(8)); v < bmWord.Size(); v += 8 + uint64(rng.Intn(24)) {
						r := block.R(block.VBN(v), block.VBN(v+1+uint64(rng.Intn(12))))
						bmWord.ClearRange(r)
						bmRef.ClearRange(r)
					}
				}
				age()
				sameBits("aged")
				tetris := devices * block.StripesPerTetris
				step := 1
				if testing.Short() {
					step = 1 + tetris/97
				}
				prefix := []block.VBN{3, 1, 4}
				for max := 1; max <= tetris; max += step {
					if bmWord.Free() < bmWord.Size()/4 {
						sameBits(fmt.Sprintf("max %d, before re-aging", max))
						age()
					}
					got, gotMore := word.allocateTetris(bmWord, prefix, max)
					want, wantMore := refAllocateTetris(ref, bmRef, prefix, max)
					if !slices.Equal(got, want) || gotMore != wantMore {
						t.Fatalf("max %d: took %v (more %v), reference %v (more %v)", max, got[len(prefix):], gotMore, want[len(prefix):], wantMore)
					}
					if a, b := tetrisState(word, bmWord), tetrisState(ref, bmRef); a != b {
						t.Fatalf("max %d:\n%s\nreference\n%s", max, a, b)
					}
					if !slices.Equal(word.cpWrites, ref.cpWrites) {
						t.Fatalf("max %d: write set %v, reference %v", max, word.cpWrites, ref.cpWrites)
					}
					word.cpWrites, ref.cpWrites = word.cpWrites[:0], ref.cpWrites[:0]
				}
				sameBits("end")
			})
		}
	}
}

// TestTetrisStopRule pins where a call leaves the cursor. On a fresh group of
// four data devices, a call for 8 blocks takes stripes 0 and 1 whole; its 8th
// block lands on the last device, so the cursor moves to the tetris's end
// and stripes 2–63 (248 free blocks) wait for the AA's next pick. A call for
// 7 blocks stops on device 2 of stripe 1, so the cursor stays there and the
// next call resumes with device 3. The paper assigns "all free VBNs from the
// AA in sequential order" (§3.1); DESIGN.md §14 lists the first case as a
// wart whose fix moves the recorded digests.
func TestTetrisStopRule(t *testing.T) {
	spec := GroupSpec{DataDevices: 4, ParityDevices: 1, BlocksPerDevice: 8192, Media: aa.MediaHDD}
	stripeMajor := func(g *Group, from, to uint64) []block.VBN {
		var vbns []block.VBN
		for s := from; s < to; s++ {
			for d := 0; d < spec.DataDevices; d++ {
				vbns = append(vbns, g.geo.VBNOf(d, s))
			}
		}
		return vbns
	}
	for _, tc := range []struct {
		max        int
		wantStripe uint64 // relative to the AA's first stripe
		wantTaken  int    // blocks of stripe-major order taken
	}{
		{max: 8, wantStripe: block.StripesPerTetris, wantTaken: 8},
		{max: 7, wantStripe: 1, wantTaken: 7},
	} {
		g, bm := tetrisRig(spec, true, 1)
		out, more := g.allocateTetris(bm, nil, tc.max)
		first, _ := g.topo.StripeRange(g.curAA)
		if want := stripeMajor(g, first, first+2)[:tc.wantTaken]; !more || !slices.Equal(out, want) {
			t.Fatalf("max %d: took %v (more %v), want %v", tc.max, out, more, want)
		}
		if g.curStripe != first+tc.wantStripe {
			t.Fatalf("max %d: cursor at stripe %d, want %d", tc.max, g.curStripe-first, tc.wantStripe)
		}
		left := bm.CountFreeStrided(g.geo.VBNOf(0, first+2), block.StripesPerTetris-2, spec.BlocksPerDevice, spec.DataDevices)
		if left != 248 {
			t.Fatalf("max %d: stripes 2-63 hold %d free blocks, want 248", tc.max, left)
		}
		next, _ := g.allocateTetris(bm, nil, 1)
		resume := g.geo.VBNOf(0, first+block.StripesPerTetris) // stripes 2-63 skipped
		if tc.max == 7 {
			resume = g.geo.VBNOf(3, first+1)
		}
		if len(next) != 1 || next[0] != resume {
			t.Fatalf("max %d: the next call took %v, want %v", tc.max, next, resume)
		}
	}
}
