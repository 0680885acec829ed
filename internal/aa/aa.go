// Package aa defines allocation areas (AAs): the fixed-size regions of a
// block-number space whose free space WAFL tracks to guide the write
// allocator (§3.1 of the paper).
//
// Two topologies exist:
//
//   - RAID-aware: for storage arranged into a RAID group, an AA is a set of
//     consecutive stripes, i.e. one contiguous DBN run on every data device
//     (Figs. 2 and 3). Writing an entire AA yields full stripe writes and
//     long per-device write chains.
//
//   - RAID-agnostic: for FlexVol virtual VBN spaces and storage with native
//     redundancy (object stores), an AA is simply a run of consecutive VBNs.
//     The default size of 32k blocks matches one 4KiB bitmap-metafile block,
//     so consuming one AA dirties a single metafile block (§3.2.1).
//
// An AA's score is its number of free blocks, computed from the bitmap
// metafiles; package aa provides the scoring helpers shared by both AA
// cache implementations.
package aa

import (
	"fmt"

	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/raid"
)

// ID names an allocation area within one VBN space, in ascending VBN order.
type ID uint32

// RAIDAgnosticBlocks is the default RAID-agnostic AA size: 32k consecutive
// VBNs, matching the alignment of bitmap metafiles (§3.2.1). It is also the
// best possible AA score for such spaces.
const RAIDAgnosticBlocks = block.BitsPerBitmapBlock

// DefaultHDDStripes is the historical default AA size for HDD RAID groups:
// 4k stripes (§3.2.1, Fig. 3).
const DefaultHDDStripes = 4096

// Topology describes how a VBN space is carved into allocation areas.
type Topology interface {
	// NumAAs returns the number of allocation areas in the space.
	NumAAs() int
	// AAOf returns the AA containing VBN v; v must lie in Space().
	AAOf(v block.VBN) ID
	// Segments returns the VBN ranges composing AA id, in ascending order.
	// A RAID-agnostic AA has one segment; a RAID-aware AA has one segment
	// per data device.
	Segments(id ID) []block.Range
	// BlocksPerAA returns the number of blocks in a (non-truncated) AA —
	// the maximum possible score.
	BlocksPerAA() uint64
	// Space returns the full VBN range covered by the topology.
	Space() block.Range
}

// Score computes the AA score — the number of free blocks in the AA — by
// consulting the bitmap (§3.3). The package's own two topologies are scored
// without materialising their segment lists: a mount walk scores every AA of
// every space, and a slice per AA was most of what it allocated. A striped
// AA's device segments are one run of stripes repeated every
// BlocksPerDevice VBNs, so it is one strided count.
func Score(t Topology, bm *bitmap.Bitmap, id ID) uint64 {
	var s uint64
	switch t := t.(type) {
	case *Linear:
		s = bm.CountFree(t.Segment(id))
	case *Striped:
		from, to := t.StripeRange(id)
		s = bm.CountFreeStrided(t.geo.StartVBN+block.VBN(from), to-from, t.geo.BlocksPerDevice, t.geo.DataDevices)
	default:
		for _, seg := range t.Segments(id) {
			s += bm.CountFree(seg)
		}
	}
	return s
}

// Capacity returns the true block capacity of AA id — the sum of its
// segment lengths, which is smaller than BlocksPerAA() for a truncated
// final AA. Free-fraction analytics divide scores by this, not by the
// nominal AA size.
func Capacity(t Topology, id ID) uint64 {
	var n uint64
	switch t := t.(type) {
	case *Linear:
		n = t.Segment(id).Len()
	case *Striped:
		from, to := t.StripeRange(id)
		n = (to - from) * uint64(t.geo.DataDevices)
	default:
		for _, seg := range t.Segments(id) {
			n += seg.Len()
		}
	}
	return n
}

// ScoreAll computes the score of every AA in the topology, charging the
// bitmap scan once over the whole space; this is the linear walk a cache
// rebuild performs when no TopAA metafile is available (§3.4).
func ScoreAll(t Topology, bm *bitmap.Bitmap) []uint64 {
	return ScoreAllInto(nil, t, bm)
}

// ScoreAllInto is ScoreAll scoring into dst when it has the capacity
// (whatever it held is overwritten) and into a new slice otherwise, so a
// space that rescans at every mount keeps one buffer:
// scores = ScoreAllInto(scores, ...). The scan is charged whole-space once,
// each bitmap page read once however many AAs share it.
func ScoreAllInto(dst []uint64, t Topology, bm *bitmap.Bitmap) []uint64 {
	bm.ChargeScan(t.Space())
	return scoresInto(dst, t, bm)
}

func scoresInto(dst []uint64, t Topology, bm *bitmap.Bitmap) []uint64 {
	n := t.NumAAs()
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	scores := dst[:n]
	for id := range scores {
		scores[id] = Score(t, bm, ID(id))
	}
	return scores
}

// Linear is the RAID-agnostic topology: consecutive runs of BlocksPer VBNs
// over a flat space. The final AA may be truncated if the space size is not
// a multiple of BlocksPer.
type Linear struct {
	space     block.Range
	blocksPer uint64
}

// NewLinear builds a RAID-agnostic topology over space with the given AA
// size in blocks.
func NewLinear(space block.Range, blocksPer uint64) *Linear {
	if blocksPer == 0 {
		panic("aa: zero AA size")
	}
	if space.Len() == 0 {
		panic("aa: empty space")
	}
	return &Linear{space: space, blocksPer: blocksPer}
}

// NewLinearDefault builds a RAID-agnostic topology with the default 32k-block
// AA size.
func NewLinearDefault(space block.Range) *Linear {
	return NewLinear(space, RAIDAgnosticBlocks)
}

// NumAAs implements Topology.
func (l *Linear) NumAAs() int {
	return int((l.space.Len() + l.blocksPer - 1) / l.blocksPer)
}

// AAOf implements Topology.
func (l *Linear) AAOf(v block.VBN) ID {
	if !l.space.Contains(v) {
		panic(fmt.Sprintf("aa: VBN %v outside space %v", v, l.space))
	}
	return ID(uint64(v-l.space.Start) / l.blocksPer)
}

// Segments implements Topology.
func (l *Linear) Segments(id ID) []block.Range { return []block.Range{l.Segment(id)} }

// Segment returns the one VBN range composing AA id, without the slice
// Segments wraps it in: the allocation cursor asks once per block.
func (l *Linear) Segment(id ID) block.Range {
	if int(id) >= l.NumAAs() {
		panic(fmt.Sprintf("aa: AA %d outside topology (%d AAs)", id, l.NumAAs()))
	}
	start := l.space.Start + block.VBN(uint64(id)*l.blocksPer)
	end := start + block.VBN(l.blocksPer)
	if end > l.space.End {
		end = l.space.End
	}
	return block.R(start, end)
}

// BlocksPerAA implements Topology.
func (l *Linear) BlocksPerAA() uint64 { return l.blocksPer }

// Space implements Topology.
func (l *Linear) Space() block.Range { return l.space }

// Striped is the RAID-aware topology: each AA is StripesPer consecutive
// stripes of a RAID group, i.e. one contiguous segment per data device
// (Fig. 3). The final AA may cover fewer stripes.
type Striped struct {
	geo        raid.Geometry
	stripesPer uint64
}

// NewStriped builds a RAID-aware topology over geometry geo with the given
// AA size in stripes.
func NewStriped(geo raid.Geometry, stripesPer uint64) *Striped {
	if stripesPer == 0 {
		panic("aa: zero AA stripe count")
	}
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	return &Striped{geo: geo, stripesPer: stripesPer}
}

// Geometry returns the underlying RAID geometry.
func (s *Striped) Geometry() raid.Geometry { return s.geo }

// StripesPerAA returns the AA size in stripes.
func (s *Striped) StripesPerAA() uint64 { return s.stripesPer }

// NumAAs implements Topology.
func (s *Striped) NumAAs() int {
	return int((s.geo.Stripes() + s.stripesPer - 1) / s.stripesPer)
}

// AAOf implements Topology.
func (s *Striped) AAOf(v block.VBN) ID {
	return ID(s.geo.StripeOf(v) / s.stripesPer)
}

// StripeRange returns the half-open stripe interval of AA id.
func (s *Striped) StripeRange(id ID) (from, to uint64) {
	if int(id) >= s.NumAAs() {
		panic(fmt.Sprintf("aa: AA %d outside topology (%d AAs)", id, s.NumAAs()))
	}
	from = uint64(id) * s.stripesPer
	to = from + s.stripesPer
	if to > s.geo.Stripes() {
		to = s.geo.Stripes()
	}
	return from, to
}

// Segments implements Topology.
func (s *Striped) Segments(id ID) []block.Range {
	from, to := s.StripeRange(id)
	out := make([]block.Range, s.geo.DataDevices)
	for d := 0; d < s.geo.DataDevices; d++ {
		out[d] = s.geo.DeviceSegment(d, from, to)
	}
	return out
}

// BlocksPerAA implements Topology.
func (s *Striped) BlocksPerAA() uint64 {
	return s.stripesPer * uint64(s.geo.DataDevices)
}

// Space implements Topology.
func (s *Striped) Space() block.Range { return s.geo.VBNRange() }

// Scores computes every AA's score without charging any metafile reads;
// observers that must not move the modeled I/O score this way. The third
// argument is ignored: scoring runs on the caller's goroutine.
func Scores(t Topology, bm *bitmap.Bitmap, _ int) []uint64 {
	return scoresInto(nil, t, bm)
}
