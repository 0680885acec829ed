// Package block defines the fundamental units of the WAFL block layer:
// volume block numbers (VBNs), block and page sizes, and the conversion
// helpers shared by every other subsystem.
//
// WAFL addresses storage in 4KiB blocks. A block in the aggregate is named
// by its physical VBN; a block inside a FlexVol volume is additionally named
// by a virtual VBN giving its offset within the volume. Both number spaces
// are flat [0, N) ranges and both are tracked by bitmap metafiles whose i-th
// bit records the state of the i-th block.
package block

import "fmt"

// Size constants for the WAFL block layer.
const (
	// BlockSize is the size of one WAFL block in bytes. WAFL addresses all
	// storage in 4KiB units (§2 of the paper).
	BlockSize = 4096

	// BitsPerBitmapBlock is the number of VBN state bits held by a single
	// 4KiB bitmap-metafile block: 4096 bytes * 8 = 32k bits (§3.2.1).
	BitsPerBitmapBlock = BlockSize * 8

	// ChecksumSize is the per-block identifier WAFL persists to protect
	// against media errors and lost or misdirected writes (§3.2.4).
	ChecksumSize = 64

	// AZCSRegionDataBlocks is the number of consecutive data blocks that
	// share one checksum block under advanced zone checksums: 63 data
	// blocks use the 64th block as their checksum block, since
	// 4096/64 = 64 identifiers fit in one block (§3.2.4).
	AZCSRegionDataBlocks = 63

	// AZCSRegionBlocks is the total span of one AZCS region including the
	// checksum block itself.
	AZCSRegionBlocks = AZCSRegionDataBlocks + 1

	// StripesPerTetris is the number of consecutive stripes in a tetris,
	// the unit of write I/O sent from WAFL to a RAID group (§4.2).
	StripesPerTetris = 64

	// ChunkSize is the sector-level protection unit within a 4KiB block:
	// metafile blocks carry a checksum per 512-byte chunk plus one XOR
	// parity chunk, so a single damaged or unreadable chunk can be
	// RAID-reconstructed before falling back to recomputation (§3.2.4 and
	// the repair path of §3.4).
	ChunkSize = 512

	// ChunksPerBlock is the number of protection chunks in one 4KiB block.
	ChunksPerBlock = BlockSize / ChunkSize
)

// VBN is a volume block number: the index of a 4KiB block within a flat
// block-number space. The same type names blocks in the physical space of an
// aggregate ("physical VBN") and in the virtual space of a FlexVol volume
// ("virtual VBN"); which space a VBN belongs to is a property of the
// structure holding it, exactly as in WAFL.
type VBN uint64

// InvalidVBN is a sentinel for "no block". It is the maximum VBN value and
// is never a valid block address in any space built by this library.
const InvalidVBN = VBN(^uint64(0))

// String implements fmt.Stringer.
func (v VBN) String() string {
	if v == InvalidVBN {
		return "vbn(invalid)"
	}
	return fmt.Sprintf("vbn(%d)", uint64(v))
}

// BitmapBlock returns the index of the 4KiB bitmap-metafile block that holds
// this VBN's state bit. Consecutive runs of 32k VBNs share one metafile
// block, which is why RAID-agnostic allocation areas are sized at 32k blocks
// (§3.2.1): consuming an entire AA dirties only a single metafile block.
func (v VBN) BitmapBlock() uint64 { return uint64(v) / BitsPerBitmapBlock }

// BitmapBit returns the bit offset of this VBN within its bitmap block.
func (v VBN) BitmapBit() uint64 { return uint64(v) % BitsPerBitmapBlock }

// Range is a half-open interval [Start, End) of VBNs within one number
// space. It is the unit in which allocation areas, RAID device segments, and
// bitmap scans describe themselves.
type Range struct {
	Start VBN // first VBN in the range
	End   VBN // one past the last VBN in the range
}

// R constructs a Range. It is a convenience for the many call sites that
// build literal ranges.
func R(start, end VBN) Range { return Range{Start: start, End: end} }

// Len returns the number of VBNs in the range.
func (r Range) Len() uint64 {
	if r.End <= r.Start {
		return 0
	}
	return uint64(r.End - r.Start)
}

// Contains reports whether v lies within the range.
func (r Range) Contains(v VBN) bool { return v >= r.Start && v < r.End }

// Overlaps reports whether r and o share at least one VBN.
func (r Range) Overlaps(o Range) bool {
	return r.Start < o.End && o.Start < r.End
}

// Intersect returns the overlap of r and o, which may be empty.
func (r Range) Intersect(o Range) Range {
	out := Range{Start: maxVBN(r.Start, o.Start), End: minVBN(r.End, o.End)}
	if out.End < out.Start {
		out.End = out.Start
	}
	return out
}

// String implements fmt.Stringer.
func (r Range) String() string {
	return fmt.Sprintf("[%d,%d)", uint64(r.Start), uint64(r.End))
}

func maxVBN(a, b VBN) VBN {
	if a > b {
		return a
	}
	return b
}

func minVBN(a, b VBN) VBN {
	if a < b {
		return a
	}
	return b
}
