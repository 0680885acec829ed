package ordset

import (
	"math/rand"
	"slices"
	"testing"
)

func newBits(n uint64) *Bits {
	s := new(Bits)
	s.Grow(n)
	return s
}

// members returns what Each visits.
func members(s *Bits) []uint64 {
	var out []uint64
	s.Each(func(i uint64) { out = append(out, i) })
	return out
}

// sortedKeys is the reference: the map's keys, comparison-sorted.
func sortedKeys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}

// dirtyBase carries one check's rank table into the next, so stale entries
// from another set are always present.
var dirtyBase []uint32

// check compares every read of the set with the reference map.
func check(t *testing.T, n uint64, s *Bits, ref map[uint64]bool) {
	t.Helper()
	want := sortedKeys(ref)
	if got := members(s); !slices.Equal(got, want) {
		t.Fatalf("n=%d: Each visits %v, want %v", n, got, want)
	}
	if s.Len() != len(want) {
		t.Fatalf("n=%d: Len %d, want %d", n, s.Len(), len(want))
	}
	if min, ok := s.Min(); ok != (len(want) > 0) || (ok && min != want[0]) {
		t.Fatalf("n=%d: Min = (%d, %v), members %v", n, min, ok, want)
	}
	// Rank is every member's position in the sorted list, through a base left
	// dirty by an earlier, different set.
	base := s.Ranks(dirtyBase)
	for k, i := range want {
		if got := s.Rank(base, i); got != k {
			t.Fatalf("n=%d: Rank(%d) = %d, want %d", n, i, got, k)
		}
	}
	dirtyBase = base
	// Has at every member, its two neighbours and the ends of the universe.
	for _, i := range append(want, 0, n-1) {
		for _, j := range []uint64{i - 1, i, i + 1} {
			if j < n && s.Has(j) != ref[j] {
				t.Fatalf("n=%d: Has(%d) = %v, want %v", n, j, s.Has(j), ref[j])
			}
		}
	}
}

// The universes sit on and either side of the word (64) and summary-word
// (4096) boundaries, and one past the first size a third level would start
// at (64^3): the members driven through each are its first and last, the
// ones around every boundary inside it, and a random scatter.
func TestBitsMatchesSortedMap(t *testing.T) {
	for _, n := range []uint64{1, 63, 64, 65, 4095, 4096, 4097, 64*64*64 + 1} {
		rng := rand.New(rand.NewSource(int64(n)))
		pool := []uint64{0, n - 1}
		for _, edge := range []uint64{64, 128, 4096, 8192, 64 * 64 * 64} {
			for _, i := range []uint64{edge - 1, edge, edge + 1} {
				if i < n {
					pool = append(pool, i)
				}
			}
		}
		for i := 0; i < 200; i++ {
			pool = append(pool, uint64(rng.Int63n(int64(n))))
		}
		s, ref := newBits(n), map[uint64]bool{}
		for round := 0; round < 3; round++ { // reuse after Drain, then after Clear
			for step := 0; step < 600; step++ {
				i := pool[rng.Intn(len(pool))]
				if rng.Intn(3) > 0 {
					if got := s.Add(i); got == ref[i] {
						t.Fatalf("n=%d: Add(%d) = %v with the member present: %v", n, i, got, ref[i])
					}
					ref[i] = true
				} else {
					if got := s.Delete(i); got != ref[i] {
						t.Fatalf("n=%d: Delete(%d) = %v, want %v", n, i, got, ref[i])
					}
					delete(ref, i)
				}
				if step%50 == 0 {
					check(t, n, s, ref)
				}
			}
			check(t, n, s, ref)
			if round == 1 {
				s.Clear()
			} else {
				var got []uint64
				s.Drain(func(i uint64) { got = append(got, i) })
				if want := sortedKeys(ref); !slices.Equal(got, want) {
					t.Fatalf("n=%d: Drain yields %v, want %v", n, got, want)
				}
			}
			clear(ref)
			check(t, n, s, ref)
			for _, w := range s.words {
				if w != 0 {
					t.Fatalf("n=%d: a word survived emptying the set", n)
				}
			}
		}
	}
}

// Grow keeps the members and admits the new ones; the zero value grows from
// nothing.
func TestGrow(t *testing.T) {
	var s Bits
	if _, ok := s.Min(); ok || s.Len() != 0 {
		t.Fatal("zero Bits is not empty")
	}
	s.Grow(10)
	s.Add(9)
	s.Grow(5) // never shrinks
	s.Grow(64*64 + 1)
	s.Add(64 * 64)
	if got, want := members(&s), []uint64{9, 64 * 64}; !slices.Equal(got, want) {
		t.Fatalf("after Grow: %v, want %v", got, want)
	}
}
