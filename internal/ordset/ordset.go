// Package ordset is an ordered sparse set over a dense universe [0, n) of
// small integers: LBAs of a LUN, AA ids of a space, tetris indexes of a RAID
// group. Members arrive in any order and leave in ascending order, so what
// would be "append to a list, sort it at the CP" is order by construction.
//
// Two levels of bits: one word per 64 members, and a summary with one bit per
// word. Add, Has and Delete are O(1); Each, Drain and Clear visit only the
// non-empty words, so they cost O(members + n/4096) — one summary word per
// 4096 members of the universe, which keeps a huge, barely-touched universe
// (a thin LUN, a 2048-AA volume with eight live AAs) cheap to walk. Ranks
// turns the set into an index: a value kept per member can sit at the
// member's rank in a dense slice, so values that arrive in any order are put
// in ascending order without comparing them. Nothing allocates after Grow.
package ordset

import "math/bits"

// Bits is an ordered set over [0, n). The zero value is an empty set over an
// empty universe; Grow widens it.
type Bits struct {
	words []uint64 // bit i%64 of words[i/64]: i is a member
	sum   []uint64 // bit w%64 of sum[w/64]: words[w] is non-zero
	count int
}

// Grow widens the universe to at least [0, n), keeping the members.
func (s *Bits) Grow(n uint64) {
	if w := int((n + 63) / 64); w > len(s.words) {
		s.words = append(s.words, make([]uint64, w-len(s.words))...)
		s.sum = append(s.sum, make([]uint64, (w+63)/64-len(s.sum))...)
	}
}

// Len returns the number of members.
func (s *Bits) Len() int { return s.count }

// Has reports whether i is a member.
func (s *Bits) Has(i uint64) bool { return s.words[i/64]&(1<<(i%64)) != 0 }

// Add makes i a member and reports whether it was not one already.
func (s *Bits) Add(i uint64) bool {
	w, m := i/64, uint64(1)<<(i%64)
	old := s.words[w]
	if old&m != 0 {
		return false
	}
	if old == 0 {
		s.sum[w/64] |= 1 << (w % 64)
	}
	s.words[w] = old | m
	s.count++
	return true
}

// Delete removes i and reports whether it was a member.
func (s *Bits) Delete(i uint64) bool {
	w, m := i/64, uint64(1)<<(i%64)
	old := s.words[w]
	if old&m == 0 {
		return false
	}
	if old == m {
		s.sum[w/64] &^= 1 << (w % 64)
	}
	s.words[w] = old &^ m
	s.count--
	return true
}

// Min returns the smallest member.
func (s *Bits) Min() (uint64, bool) {
	for sw, x := range s.sum {
		if x != 0 {
			w := uint64(sw)*64 + uint64(bits.TrailingZeros64(x))
			return w*64 + uint64(bits.TrailingZeros64(s.words[w])), true
		}
	}
	return 0, false
}

// Ranks returns base, grown to one entry per word of the universe, with
// base[w] set to the number of members in the words below w for every
// non-empty word w (the others are left as they were). Rank then answers in
// O(1) until the set next changes. The walk is O(words in use + n/4096).
func (s *Bits) Ranks(base []uint32) []uint32 {
	if len(base) < len(s.words) {
		base = make([]uint32, len(s.words))
	}
	var n uint32
	for sw, x := range s.sum {
		for ; x != 0; x &= x - 1 {
			w := sw*64 + bits.TrailingZeros64(x)
			base[w] = n
			n += uint32(bits.OnesCount64(s.words[w]))
		}
	}
	return base
}

// Rank returns the number of members below member i, given the base Ranks
// filled since the set last changed: the position i would have in Each.
func (s *Bits) Rank(base []uint32, i uint64) int {
	return int(base[i/64]) + bits.OnesCount64(s.words[i/64]&(1<<(i%64)-1))
}

// Each calls fn on every member in ascending order. fn must not change the
// set.
func (s *Bits) Each(fn func(i uint64)) {
	for sw, x := range s.sum {
		for ; x != 0; x &= x - 1 {
			w := uint64(sw)*64 + uint64(bits.TrailingZeros64(x))
			for y := s.words[w]; y != 0; y &= y - 1 {
				fn(w*64 + uint64(bits.TrailingZeros64(y)))
			}
		}
	}
}

// Drain empties the set, calling fn on every member in ascending order. fn
// must not use the set: it is half emptied until Drain returns.
func (s *Bits) Drain(fn func(i uint64)) {
	s.count = 0
	for sw, x := range s.sum {
		s.sum[sw] = 0
		for ; x != 0; x &= x - 1 {
			w := uint64(sw)*64 + uint64(bits.TrailingZeros64(x))
			y := s.words[w]
			s.words[w] = 0
			for ; y != 0; y &= y - 1 {
				fn(w*64 + uint64(bits.TrailingZeros64(y)))
			}
		}
	}
}

// Clear empties the set.
func (s *Bits) Clear() { s.Drain(func(uint64) {}) }
