// Package raid models the RAID-group geometry beneath a WAFL aggregate.
//
// ONTAP arranges HDDs and SSDs into RAID groups (RAID 4 / RAID-DP style:
// dedicated parity devices) to protect against device failure (§2.1 of the
// paper). WAFL maintains the mapping of physical VBN ranges to storage
// devices based on their RAID topology (§3.1): each data device owns a
// contiguous run of physical VBNs, and stripe s is the set of blocks at
// device-block-number (DBN) s across all data devices, sharing the parity
// block(s) at DBN s on the parity device(s).
//
// The package also implements the tetris — the unit of write I/O WAFL sends
// to a RAID group, composed of 64 consecutive stripes (§4.2) — and the
// full/partial-stripe accounting that drives the paper's cost analysis: a
// full stripe write lets RAID compute parity with no extra reads, whereas a
// partial stripe write forces RAID to read blocks from the stripe first
// (§2.3).
package raid

import (
	"crypto/subtle"
	"fmt"
	"math/bits"
	"slices"

	"waflfs/internal/block"
	"waflfs/internal/ordset"
)

// Geometry describes one RAID group.
type Geometry struct {
	// DataDevices is the number of devices that hold file-system blocks.
	DataDevices int
	// ParityDevices is the number of dedicated parity devices (1 for
	// RAID 4, 2 for RAID-DP, 3 for RAID-TP).
	ParityDevices int
	// BlocksPerDevice is the number of 4KiB blocks (DBNs) on each device;
	// it is also the number of stripes in the group.
	BlocksPerDevice uint64
	// StartVBN is the first physical VBN of this group within the
	// aggregate's block-number space.
	StartVBN block.VBN
}

// Validate checks the geometry for internal consistency.
func (g Geometry) Validate() error {
	if g.DataDevices <= 0 {
		return fmt.Errorf("raid: DataDevices = %d, need > 0", g.DataDevices)
	}
	if g.ParityDevices < 0 {
		return fmt.Errorf("raid: ParityDevices = %d, need >= 0", g.ParityDevices)
	}
	if g.BlocksPerDevice == 0 {
		return fmt.Errorf("raid: BlocksPerDevice = 0")
	}
	return nil
}

// Blocks returns the number of data blocks (physical VBNs) in the group.
func (g Geometry) Blocks() uint64 { return uint64(g.DataDevices) * g.BlocksPerDevice }

// Stripes returns the number of stripes in the group.
func (g Geometry) Stripes() uint64 { return g.BlocksPerDevice }

// VBNRange returns the physical VBN range owned by this group.
func (g Geometry) VBNRange() block.Range {
	return block.R(g.StartVBN, g.StartVBN+block.VBN(g.Blocks()))
}

// Locate maps a physical VBN to its (data device index, DBN) coordinates.
// It panics if v is outside the group.
func (g Geometry) Locate(v block.VBN) (device int, dbn uint64) {
	if !g.VBNRange().Contains(v) {
		panic(fmt.Sprintf("raid: VBN %d outside group range %v", uint64(v), g.VBNRange()))
	}
	off := uint64(v - g.StartVBN)
	return int(off / g.BlocksPerDevice), off % g.BlocksPerDevice
}

// VBNOf is the inverse of Locate.
func (g Geometry) VBNOf(device int, dbn uint64) block.VBN {
	if device < 0 || device >= g.DataDevices || dbn >= g.BlocksPerDevice {
		panic(fmt.Sprintf("raid: coordinates (%d,%d) outside geometry", device, dbn))
	}
	return g.StartVBN + block.VBN(uint64(device)*g.BlocksPerDevice+dbn)
}

// StripeOf returns the stripe number (== DBN) of a physical VBN.
func (g Geometry) StripeOf(v block.VBN) uint64 {
	_, dbn := g.Locate(v)
	return dbn
}

// DeviceRange returns the VBN range owned by one data device.
func (g Geometry) DeviceRange(device int) block.Range {
	if device < 0 || device >= g.DataDevices {
		panic(fmt.Sprintf("raid: device %d outside geometry", device))
	}
	start := g.StartVBN + block.VBN(uint64(device)*g.BlocksPerDevice)
	return block.R(start, start+block.VBN(g.BlocksPerDevice))
}

// DeviceSegment returns, for one data device, the VBN range covering the
// half-open stripe interval [fromStripe, toStripe). Allocation areas use
// this to describe themselves as one contiguous DBN run per device.
func (g Geometry) DeviceSegment(device int, fromStripe, toStripe uint64) block.Range {
	if toStripe > g.BlocksPerDevice {
		toStripe = g.BlocksPerDevice
	}
	if fromStripe > toStripe {
		fromStripe = toStripe
	}
	return block.R(g.VBNOf(device, fromStripe), g.DeviceRange(device).Start+block.VBN(toStripe))
}

// StripeVBNs returns the physical VBNs composing stripe s, one per data
// device, in device order.
func (g Geometry) StripeVBNs(s uint64) []block.VBN {
	if s >= g.BlocksPerDevice {
		panic(fmt.Sprintf("raid: stripe %d outside geometry", s))
	}
	out := make([]block.VBN, g.DataDevices)
	for d := 0; d < g.DataDevices; d++ {
		out[d] = g.VBNOf(d, s)
	}
	return out
}

// Chain is a run of consecutive DBNs written to one device in a single
// write I/O — a write chain in the paper's terminology (§2.4).
type Chain struct {
	Device int
	Start  uint64 // first DBN in the chain
	Len    uint64 // number of blocks
}

// TetrisIO describes one tetris (64 consecutive stripes) worth of writes to
// a RAID group, fully classified for the cost model:
//
//   - how many of its stripes are full vs. partial;
//   - the extra reads RAID needs to compute parity on partial stripes;
//   - the per-device write chains (each chain is one device write I/O).
type TetrisIO struct {
	Tetris         uint64 // tetris index within the group (stripe/64)
	BlocksWritten  int    // data blocks written
	StripesTouched int    // stripes with at least one block written
	FullStripes    int    // stripes with every data block written
	PartialStripes int    // StripesTouched - FullStripes
	// ParityReadBlocks is the number of blocks RAID must read to compute
	// parity for the partial stripes. For each partial stripe with k of D
	// data blocks written, RAID reads min(k+P, (D-k)+... ) — we model the
	// cheaper of additive (read the D-k unwritten data blocks) and
	// subtractive (read the k old data blocks plus P old parity blocks)
	// parity computation, as production RAID implementations do.
	ParityReadBlocks int
	// ParityWriteBlocks is StripesTouched * ParityDevices: parity is
	// rewritten for every touched stripe.
	ParityWriteBlocks int
	// Chains lists the per-device write chains, ordered by device then DBN.
	Chains []Chain
}

// WriteIOs returns the number of device write I/Os needed for the tetris'
// data blocks: one per chain. (Parity writes are accounted separately since
// parity devices are written in stripe-contiguous runs.)
func (t *TetrisIO) WriteIOs() int { return len(t.Chains) }

// TetrisBuilder classifies a CP's writes to one RAID group into tetrises,
// keeping its bit matrices, result slice and chain storage between calls so a
// steady-state CP allocates nothing here. A builder belongs to one caller at
// a time (each wafl.Group owns one: groups flush concurrently); the zero
// value is ready to use.
type TetrisBuilder struct {
	// touched holds the tetrises of the last Build; slot[t] says which matrix
	// of cells belongs to touched tetris t (stale for any other t).
	touched ordset.Bits
	slot    []uint32
	// cells holds one device × stripe bit matrix per touched tetris, in
	// first-touch order: DataDevices words, bit s of word d set when the
	// block at stripe s of the tetris on device d is written.
	cells []uint64
	out   []TetrisIO
	// chains backs every TetrisIO.Chains of the last Build.
	chains []Chain
}

// Build classifies vbns — the physical VBNs being written, in any order,
// duplicates not allowed — into tetrises ordered by tetris index, each with
// its chains ordered by device then DBN. The tetris boundary is
// block.StripesPerTetris consecutive stripes: a tetris is a word of stripes
// per device, a chain is a run of ones in it, and ascending order comes from
// walking the bits rather than from sorting the blocks. The result and
// everything it points to are valid only until the next Build on the same
// builder.
func (b *TetrisBuilder) Build(g Geometry, vbns []block.VBN) []TetrisIO {
	if len(vbns) == 0 {
		return nil
	}
	D := g.DataDevices
	tetrises := (g.BlocksPerDevice + block.StripesPerTetris - 1) / block.StripesPerTetris
	b.touched.Clear()
	b.touched.Grow(tetrises)
	if uint64(len(b.slot)) < tetrises {
		b.slot = make([]uint32, tetrises)
	}
	// The allocator emits its blocks tetris by tetris, so the matrix of the
	// previous block is nearly always the one wanted.
	cells, cur, m := b.cells[:0], ^uint64(0), []uint64(nil)
	for _, v := range vbns {
		d, dbn := g.Locate(v)
		if t := dbn / block.StripesPerTetris; t != cur {
			if b.touched.Add(t) {
				b.slot[t] = uint32(len(cells) / D)
				cells = append(cells, make([]uint64, D)...)
			}
			cur, m = t, cells[int(b.slot[t])*D:][:D]
		}
		bit := uint64(1) << (dbn % block.StripesPerTetris)
		if m[d]&bit != 0 {
			panic(fmt.Sprintf("raid: duplicate VBN %d in tetris build", uint64(v)))
		}
		m[d] |= bit
	}
	b.cells = cells

	// Size the result exactly, so that Chains can be sliced out of b.chains
	// while it fills without it moving underneath them. A chain starts at
	// every one whose lower neighbour is a zero.
	chains := 0
	for _, w := range cells {
		chains += bits.OnesCount64(w &^ (w << 1))
	}
	b.out = slices.Grow(b.out[:0], b.touched.Len())
	b.chains = slices.Grow(b.chains[:0], chains)

	b.touched.Each(func(id uint64) {
		io := TetrisIO{Tetris: id}
		first := len(b.chains)
		touched, full := uint64(0), ^uint64(0)
		// fill counts the devices written per stripe, one bit plane per binary
		// digit: bit s of fill[j] is digit j of stripe s's count.
		var fill [64]uint64
		for d, w := range cells[int(b.slot[id])*D:][:D] {
			touched |= w
			full &= w
			io.BlocksWritten += bits.OnesCount64(w)
			for carry, j := w, 0; carry != 0; j++ {
				fill[j], carry = fill[j]^carry, fill[j]&carry
			}
			for w != 0 {
				// Adding its lowest one to w carries through the lowest run of
				// ones: the sum's lowest one is where the run ends (there is
				// none if it ends with the word), and the ones w shares with
				// the sum are its other runs.
				off, sum := bits.TrailingZeros64(w), w+(w&-w)
				b.chains = append(b.chains, Chain{Device: d, Start: id*block.StripesPerTetris + uint64(off), Len: uint64(bits.TrailingZeros64(sum) - off)})
				w &= sum
			}
		}
		io.Chains = b.chains[first:len(b.chains):len(b.chains)]
		io.StripesTouched = bits.OnesCount64(touched)
		io.FullStripes = bits.OnesCount64(full)
		io.PartialStripes = io.StripesTouched - io.FullStripes
		io.ParityWriteBlocks = io.StripesTouched * g.ParityDevices
		// Partial stripes are the ones written on k devices for some 0 < k < D;
		// pick them out count by count until every one is priced.
		for k, partial := 1, touched&^full; partial != 0; k++ {
			at := partial
			for j := 0; j < bits.Len(uint(D)); j++ {
				if k>>j&1 != 0 {
					at &= fill[j]
				} else {
					at &^= fill[j]
				}
			}
			// Cheaper of subtractive (k old data + P old parity) and
			// additive (D-k untouched data) parity computation.
			io.ParityReadBlocks += bits.OnesCount64(at) * min(k+g.ParityDevices, D-k)
			partial &^= at
		}
		b.out = append(b.out, io)
	})
	return b.out
}

// BuildTetrises is Build on a fresh builder: the caller owns the result.
func BuildTetrises(g Geometry, vbns []block.VBN) []TetrisIO {
	return new(TetrisBuilder).Build(g, vbns)
}

// XORInto folds src into dst, dst[i] ^= src[i] — one step of the RAID 4
// parity rule at sub-block granularity, a machine word or a vector at a time
// (crypto/subtle's kernel). A caller that keeps a parity buffer accumulates
// into it without allocating. It panics on mismatched lengths (a programming
// error, like Geometry misuse).
func XORInto(dst, src []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("raid: XOR parity chunk length %d != %d", len(src), len(dst)))
	}
	subtle.XORBytes(dst, dst, src)
}

// XORParity computes the XOR parity of equal-length chunks into a new
// buffer. Metafile blocks persist one parity chunk per 4KiB block so that a
// single damaged or unreadable chunk can be rebuilt without falling back to
// recomputing the caches from the bitmaps. It panics on no chunks or
// mismatched lengths.
func XORParity(chunks ...[]byte) []byte {
	if len(chunks) == 0 {
		panic("raid: XOR parity of zero chunks")
	}
	out := append([]byte(nil), chunks[0]...)
	for _, c := range chunks[1:] {
		XORInto(out, c)
	}
	return out
}

// XORReconstruct rebuilds one missing chunk from the parity chunk and the
// surviving chunks: parity XOR survivors. It is XORParity with the parity
// standing in for the lost member.
func XORReconstruct(parity []byte, survivors ...[]byte) []byte {
	return XORParity(append([][]byte{parity}, survivors...)...)
}

// Stats accumulates tetris accounting across consistency points; the Fig. 7
// experiment reports blocks/s and tetrises/s per RAID group from it.
type Stats struct {
	Tetrises          uint64
	BlocksWritten     uint64
	FullStripes       uint64
	PartialStripes    uint64
	ParityReadBlocks  uint64
	ParityWriteBlocks uint64
	WriteIOs          uint64 // data-device write I/Os (chains)
	// PerDeviceBlocks counts data blocks written to each device.
	PerDeviceBlocks []uint64
}

// NewStats returns a Stats sized for geometry g.
func NewStats(g Geometry) *Stats {
	return &Stats{PerDeviceBlocks: make([]uint64, g.DataDevices)}
}

// Add folds one tetris into the statistics.
func (s *Stats) Add(t *TetrisIO) {
	s.Tetrises++
	s.BlocksWritten += uint64(t.BlocksWritten)
	s.FullStripes += uint64(t.FullStripes)
	s.PartialStripes += uint64(t.PartialStripes)
	s.ParityReadBlocks += uint64(t.ParityReadBlocks)
	s.ParityWriteBlocks += uint64(t.ParityWriteBlocks)
	s.WriteIOs += uint64(t.WriteIOs())
	for _, c := range t.Chains {
		if c.Device < len(s.PerDeviceBlocks) {
			s.PerDeviceBlocks[c.Device] += c.Len
		}
	}
}

// FullStripeFraction returns the fraction of touched stripes written full.
func (s *Stats) FullStripeFraction() float64 {
	tot := s.FullStripes + s.PartialStripes
	if tot == 0 {
		return 0
	}
	return float64(s.FullStripes) / float64(tot)
}
