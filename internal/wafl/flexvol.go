package wafl

import (
	"fmt"
	"math/rand"

	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/ordset"
)

// FlexVol is one virtualized volume hosted in an aggregate (§2.1). It owns
// a flat virtual VBN space with its own bitmap metafiles and RAID-agnostic
// AA cache; data blocks additionally occupy physical VBNs in the aggregate.
type FlexVol struct {
	Name string
	// index is the volume's position in Aggregate.vols: per-generation CP
	// bookkeeping is a slice indexed by it. rank is its position among the
	// aggregate's volumes by name, as LUN.rank is among the volume's LUNs:
	// the alloc stage orders dirty LUNs by the two.
	index, rank int

	bm    *bitmap.Bitmap
	space *agnosticSpace
	luns  map[string]*LUN
	// rc counts, by virtual VBN, the entries beyond the first of the pairs a
	// restore stored more than once; live counts every held pair. See
	// snapshot.go and reftable.go.
	rc   *refTable
	live int
}

func newFlexVol(index int, spec VolSpec, tun Tunables, rng *rand.Rand) *FlexVol {
	if spec.Blocks == 0 {
		panic("wafl: zero-size FlexVol")
	}
	checkCap("volume "+spec.Name, spec.Blocks)
	bm := bitmap.New(spec.Blocks)
	v := &FlexVol{
		Name:  spec.Name,
		index: index,
		bm:    bm,
		space: newAgnosticSpace(spec.Name, block.R(0, block.VBN(spec.Blocks)), bm, tun, tun.VolCacheEnabled, rng),
		luns:  make(map[string]*LUN),
		rc:    newRefTable(spec.Blocks),
	}
	if tun.DelayedVirtFrees {
		v.space.delayed = newDelayedFrees(v.space.topo.NumAAs())
	}
	return v
}

// Blocks returns the virtual VBN space size.
func (v *FlexVol) Blocks() uint64 { return v.bm.Size() }

// Bitmap exposes the volume's bitmap metafile (read-mostly; used by
// the benchmark harness and tests).
func (v *FlexVol) Bitmap() *bitmap.Bitmap { return v.bm }

// UsedFraction returns the fraction of virtual VBNs allocated.
func (v *FlexVol) UsedFraction() float64 {
	return float64(v.bm.Used()) / float64(v.bm.Size())
}

// CreateLUN provisions a LUN of the given size in blocks. Space is consumed
// lazily as blocks are written (thin provisioning, §3.3.2).
func (v *FlexVol) CreateLUN(name string, blocks uint64) *LUN {
	if _, dup := v.luns[name]; dup {
		panic(fmt.Sprintf("wafl: duplicate LUN %q in %s", name, v.Name))
	}
	checkCap("LUN "+name, blocks)
	l := &LUN{Name: name, vol: v, blocks: make([]blockPtr, blocks)}
	l.dirty.Grow(blocks)
	for _, o := range v.luns { // take the name's place in rank order

		if o.Name < name {
			l.rank++
		} else {
			o.rank++
		}
	}
	v.luns[name] = l
	return l
}

// LUN returns the named LUN, or nil.
func (v *FlexVol) LUN(name string) *LUN { return v.luns[name] }

// blockPtr is the dual address of one written LUN block: its virtual VBN in
// the volume and its physical VBN in the aggregate (§2.1: "it must allocate
// both a physical block number and a virtual block number"). The zero
// blockPtr is an unwritten block.
type blockPtr struct {
	virt vbn32
	phys vbn32
}

// vbn32 is a VBN stored in 32 bits as the VBN plus one, so zero holds
// InvalidVBN. Block pointers, snapshot deltas and delayed-free queues store
// it; everything else speaks block.VBN. It holds every VBN of a space of at
// most maxSpaceBlocks blocks, the cap checkCap enforces.
type vbn32 uint32

// pack stores v, InvalidVBN or a VBN below maxSpaceBlocks.
func pack(v block.VBN) vbn32 { return vbn32(v + 1) }

// vbn returns the VBN x stores.
func (x vbn32) vbn() block.VBN { return block.VBN(uint64(x) - 1) }

// maxSpaceBlocks is the most blocks a volume, an aggregate (its object pool
// included) or a LUN may hold: the most a vbn32 can address.
const maxSpaceBlocks = 1<<32 - 1

// checkCap panics if a space of the given size would not fit the 32-bit
// block pointer. Constructors call it before they allocate anything.
func checkCap(what string, blocks uint64) {
	if blocks > maxSpaceBlocks {
		panic(fmt.Sprintf("wafl: %s of %d blocks is over the cap of 2^32-1 blocks (16 TiB) a 32-bit block pointer addresses", what, blocks))
	}
}

// LUN is a block device exported from a FlexVol: a flat array of logical
// blocks, each holding a (virtual, physical) VBN pair once written. Client
// overwrites allocate fresh VBNs and free the old ones — the COW behaviour
// that fragments free space (§2.2).
type LUN struct {
	Name   string
	vol    *FlexVol
	rank   int // see FlexVol.rank
	blocks []blockPtr
	snaps  map[string]*Snapshot
	// chain lists the snapshots oldest first, each with its delta, and spare
	// keeps the emptied delta of a deleted one for the next create. rcPairs
	// counts this LUN's pairs with an rc count: zero unless a restore stored
	// one twice (snapshot.go).
	chain   []*Snapshot
	spare   []snapDelta
	rcPairs int

	// The LUN's share of the write buffer: the logical blocks written since
	// the last CP's alloc stage, which drains them in ascending order (see
	// System.Write).
	dirty ordset.Bits
}

// Blocks returns the LUN's logical size in blocks.
func (l *LUN) Blocks() uint64 { return uint64(len(l.blocks)) }

// Written reports whether logical block lba has ever been written.
func (l *LUN) Written(lba uint64) bool { return l.blocks[lba].virt != 0 }

// Phys returns the physical VBN backing lba (InvalidVBN if unwritten).
func (l *LUN) Phys(lba uint64) block.VBN { return l.blocks[lba].phys.vbn() }

// Virt returns the virtual VBN backing lba (InvalidVBN if unwritten).
func (l *LUN) Virt(lba uint64) block.VBN { return l.blocks[lba].virt.vbn() }

// Metrics returns the volume allocator's measurement counters.
func (v *FlexVol) Metrics() SpaceMetrics { return v.space.metrics() }

// ResetMetrics zeroes the volume allocator's measurement counters.
func (v *FlexVol) ResetMetrics() { v.space.resetMetrics() }
