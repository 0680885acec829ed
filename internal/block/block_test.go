package block

import (
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if BlockSize != 4096 {
		t.Fatalf("BlockSize = %d, want 4096", BlockSize)
	}
	if BitsPerBitmapBlock != 32*1024 {
		t.Fatalf("BitsPerBitmapBlock = %d, want 32768", BitsPerBitmapBlock)
	}
	if AZCSRegionBlocks != 64 {
		t.Fatalf("AZCSRegionBlocks = %d, want 64", AZCSRegionBlocks)
	}
	if BlockSize/ChecksumSize != AZCSRegionBlocks {
		t.Fatalf("one block must hold exactly %d identifiers", AZCSRegionBlocks)
	}
}

func TestVBNBitmapCoordinates(t *testing.T) {
	cases := []struct {
		v     VBN
		block uint64
		bit   uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{BitsPerBitmapBlock - 1, 0, BitsPerBitmapBlock - 1},
		{BitsPerBitmapBlock, 1, 0},
		{3*BitsPerBitmapBlock + 17, 3, 17},
	}
	for _, c := range cases {
		if got := c.v.BitmapBlock(); got != c.block {
			t.Errorf("%v.BitmapBlock() = %d, want %d", c.v, got, c.block)
		}
		if got := c.v.BitmapBit(); got != c.bit {
			t.Errorf("%v.BitmapBit() = %d, want %d", c.v, got, c.bit)
		}
	}
}

func TestVBNString(t *testing.T) {
	if got := VBN(42).String(); got != "vbn(42)" {
		t.Errorf("String() = %q", got)
	}
	if got := InvalidVBN.String(); got != "vbn(invalid)" {
		t.Errorf("invalid String() = %q", got)
	}
}

func TestRangeBasics(t *testing.T) {
	r := Range{Start: 10, End: 20}
	if r.Len() != 10 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(10) || !r.Contains(19) {
		t.Error("Contains endpoints wrong")
	}
	if r.Contains(9) || r.Contains(20) {
		t.Error("Contains exterior wrong")
	}
	empty := Range{Start: 5, End: 5}
	if empty.Len() != 0 {
		t.Errorf("empty Len = %d", empty.Len())
	}
	inverted := Range{Start: 9, End: 3}
	if inverted.Len() != 0 {
		t.Errorf("inverted Len = %d", inverted.Len())
	}
	if r.String() != "[10,20)" {
		t.Errorf("String = %q", r.String())
	}
}

func TestRangeOverlapsIntersect(t *testing.T) {
	a := Range{0, 10}
	b := Range{5, 15}
	c := Range{10, 20}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a/b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("half-open ranges touching at 10 must not overlap")
	}
	got := a.Intersect(b)
	if got != (Range{5, 10}) {
		t.Errorf("Intersect = %v", got)
	}
	if a.Intersect(c).Len() != 0 {
		t.Errorf("disjoint Intersect non-empty: %v", a.Intersect(c))
	}
}

// Property: intersection is symmetric, contained in both operands, and
// overlap is equivalent to a non-empty intersection.
func TestRangeIntersectProperties(t *testing.T) {
	f := func(a0, a1, b0, b1 uint32) bool {
		a := Range{VBN(a0), VBN(a1)}
		b := Range{VBN(b0), VBN(b1)}
		i1, i2 := a.Intersect(b), b.Intersect(a)
		if i1.Len() != i2.Len() {
			return false
		}
		if i1.Len() > 0 {
			if !a.Contains(i1.Start) || !b.Contains(i1.Start) {
				return false
			}
			if !a.Contains(i1.End-1) || !b.Contains(i1.End-1) {
				return false
			}
		}
		// Overlaps iff intersection non-empty, for well-formed ranges.
		if a.Start <= a.End && b.Start <= b.End {
			if a.Overlaps(b) != (i1.Len() > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: bitmap block/bit coordinates invert back to the VBN.
func TestVBNCoordinateRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		v := VBN(raw % (1 << 50))
		return VBN(v.BitmapBlock()*BitsPerBitmapBlock+v.BitmapBit()) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
