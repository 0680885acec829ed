// Package device models the storage media beneath a RAID group: HDDs
// (seek + transfer cost), SSDs with a page-mapped flash translation layer
// (erase blocks, greedy garbage collection, overprovisioning, and
// write-amplification accounting), and drive-managed SMR drives (shingle
// zones and zone-intervention cost), plus the AZCS checksum-region layout.
//
// The paper's media-aware AA sizing results (Figs. 6, 8, 9) are all about
// how the allocator's choice of region interacts with these device
// mechanisms, so the models here are stateful simulations, not constants:
// the SSD's write amplification emerges from the FTL's garbage collection
// under the actual write stream the allocator produces.
package device

import "fmt"

// FTL is a page-mapped flash translation layer (§3.2.2 of the paper).
//
// The exported logical space has LogicalBlocks pages; the physical media has
// more, the extra fraction being the drive's overprovisioning (OP). Writes
// append to the active erase block. When the pool of empty erase blocks runs
// low, greedy garbage collection picks the erase block with the fewest valid
// pages, relocates those pages, and erases it. The ratio of pages actually
// programmed to pages written by the host is the write amplification.
//
// A page becomes invalid when its logical block is overwritten or trimmed;
// exactly as with a real drive, a block the file system has freed but not
// rewritten or trimmed still looks valid to the FTL and must be relocated by
// GC. This is why directing writes at the emptiest erase-block-aligned
// regions reduces relocation: invalidations cluster into whole erase blocks.
type FTL struct {
	logicalBlocks uint64
	ebPages       uint64 // pages per erase block
	numEB         int

	// l2p maps logical page -> physical page index, or -1 if unmapped.
	l2p []int64
	// p2l maps physical page -> logical page, or -1 if the slot is invalid
	// or erased.
	p2l []int64
	// valid counts valid pages per erase block.
	valid []uint32
	// state per erase block.
	sealed []bool // fully written, candidate for GC

	freeEBs   []int // fully erased erase blocks
	activeEB  int   // erase block currently being filled
	activePos uint64

	// gcReserve is the number of empty erase blocks GC maintains; writing
	// stalls into GC when the free pool drops to this level.
	gcReserve int

	hostWrites uint64 // pages written by the host
	nandWrites uint64 // pages programmed on media (host + relocation)
	relocated  uint64 // pages moved by GC
	erases     uint64 // erase-block erasures
	trims      uint64
}

// FTLConfig configures an FTL simulation.
type FTLConfig struct {
	// LogicalBlocks is the size of the exported LBA space in 4KiB pages.
	LogicalBlocks uint64
	// PagesPerEraseBlock is the erase-block size in pages. Real SSD erase
	// blocks are a few MiB; 512 pages = 2MiB is a representative default.
	PagesPerEraseBlock uint64
	// Overprovision is the hidden capacity fraction (e.g. 0.10 = 10%).
	// Enterprise drives hide up to 30% (§3.2.2).
	Overprovision float64
	// GCReserve is the number of empty erase blocks below which writes
	// trigger garbage collection. Defaults to 2.
	GCReserve int
}

// NewFTL builds an FTL with the given configuration.
func NewFTL(cfg FTLConfig) *FTL {
	if cfg.LogicalBlocks == 0 || cfg.PagesPerEraseBlock == 0 {
		panic("device: FTL requires non-zero logical size and erase-block size")
	}
	if cfg.Overprovision < 0 {
		panic("device: negative overprovisioning")
	}
	if cfg.GCReserve <= 0 {
		cfg.GCReserve = 2
	}
	physPages := uint64(float64(cfg.LogicalBlocks)*(1+cfg.Overprovision)) + cfg.PagesPerEraseBlock
	numEB := int((physPages + cfg.PagesPerEraseBlock - 1) / cfg.PagesPerEraseBlock)
	if numEB < cfg.GCReserve+2 {
		numEB = cfg.GCReserve + 2
	}
	f := &FTL{
		logicalBlocks: cfg.LogicalBlocks,
		ebPages:       cfg.PagesPerEraseBlock,
		numEB:         numEB,
		l2p:           make([]int64, cfg.LogicalBlocks),
		p2l:           make([]int64, uint64(numEB)*cfg.PagesPerEraseBlock),
		valid:         make([]uint32, numEB),
		sealed:        make([]bool, numEB),
		gcReserve:     cfg.GCReserve,
	}
	for i := range f.l2p {
		f.l2p[i] = -1
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	for eb := numEB - 1; eb >= 1; eb-- {
		f.freeEBs = append(f.freeEBs, eb)
	}
	f.activeEB = 0
	return f
}

// LogicalBlocks returns the exported LBA-space size in pages.
func (f *FTL) LogicalBlocks() uint64 { return f.logicalBlocks }

func (f *FTL) invalidate(lpn uint64) {
	old := f.l2p[lpn]
	if old < 0 {
		return
	}
	eb := uint64(old) / f.ebPages
	f.p2l[old] = -1
	f.valid[eb]--
	f.l2p[lpn] = -1
}

// program places lpn at the active write position, advancing it and sealing
// the erase block when full. It returns having charged one NAND write.
func (f *FTL) program(lpn uint64) {
	if f.activePos == f.ebPages {
		f.sealed[f.activeEB] = true
		f.activeEB = f.takeFreeEB()
		f.activePos = 0
	}
	ppn := uint64(f.activeEB)*f.ebPages + f.activePos
	f.activePos++
	f.p2l[ppn] = int64(lpn)
	f.l2p[lpn] = int64(ppn)
	f.valid[f.activeEB]++
	f.nandWrites++
}

func (f *FTL) takeFreeEB() int {
	if len(f.freeEBs) == 0 {
		panic("device: FTL out of erase blocks (GC failed to reclaim)")
	}
	eb := f.freeEBs[len(f.freeEBs)-1]
	f.freeEBs = f.freeEBs[:len(f.freeEBs)-1]
	f.sealed[eb] = false
	return eb
}

// Write records a host write of logical page lpn. It returns the number of
// pages garbage collection relocated as a consequence of this write (0 when
// no GC ran).
func (f *FTL) Write(lpn uint64) (relocated uint64) {
	if lpn >= f.logicalBlocks {
		panic(fmt.Sprintf("device: LPN %d outside logical space %d", lpn, f.logicalBlocks))
	}
	f.hostWrites++
	f.invalidate(lpn)
	f.program(lpn)
	return f.gc()
}

// WriteRange implements Translator a page at a time: the greedy GC works per
// page, so there is no bulk path to take.
func (f *FTL) WriteRange(start, n uint64) (relocated uint64) {
	for lpn := start; lpn < start+n; lpn++ {
		relocated += f.Write(lpn)
	}
	return relocated
}

// Trim tells the FTL that logical page lpn no longer holds live data (e.g.
// an UNMAP/deallocate from the host). The page's physical slot becomes
// invalid immediately, so GC will not relocate it.
func (f *FTL) Trim(lpn uint64) {
	if lpn >= f.logicalBlocks {
		panic(fmt.Sprintf("device: LPN %d outside logical space %d", lpn, f.logicalBlocks))
	}
	f.trims++
	f.invalidate(lpn)
}

// gc reclaims erase blocks until the free pool is above the reserve,
// returning the number of relocated pages.
func (f *FTL) gc() (relocated uint64) {
	for len(f.freeEBs) < f.gcReserve {
		victim := f.pickVictim()
		if victim < 0 {
			return relocated
		}
		base := uint64(victim) * f.ebPages
		for p := base; p < base+f.ebPages; p++ {
			if lpn := f.p2l[p]; lpn >= 0 {
				// Relocate the still-valid page.
				f.p2l[p] = -1
				f.valid[victim]--
				f.l2p[lpn] = -1
				f.program(uint64(lpn))
				relocated++
			}
		}
		f.sealed[victim] = false
		f.freeEBs = append(f.freeEBs, victim)
		f.erases++
	}
	f.relocated += relocated
	return relocated
}

// pickVictim selects the sealed erase block with the fewest valid pages
// (greedy GC). Returns -1 if no sealed block exists.
func (f *FTL) pickVictim() int {
	best, bestValid := -1, uint32(0)
	for eb := 0; eb < f.numEB; eb++ {
		if !f.sealed[eb] {
			continue
		}
		if best < 0 || f.valid[eb] < bestValid {
			best, bestValid = eb, f.valid[eb]
		}
	}
	if best >= 0 && uint64(bestValid) == f.ebPages {
		// Every sealed block is fully valid: relocating would make no
		// progress. Leave GC to a later write once invalidations arrive.
		return -1
	}
	return best
}

// FTLStats is a snapshot of the FTL's lifetime accounting.
type FTLStats struct {
	HostWrites uint64 // pages written by the host
	NANDWrites uint64 // pages programmed on media
	Relocated  uint64 // pages relocated by GC
	Erases     uint64 // erase operations
	Trims      uint64
}

// Stats returns the FTL counters.
func (f *FTL) Stats() FTLStats {
	return FTLStats{
		HostWrites: f.hostWrites,
		NANDWrites: f.nandWrites,
		Relocated:  f.relocated,
		Erases:     f.erases,
		Trims:      f.trims,
	}
}

// WriteAmplification returns NAND writes / host writes; 1.0 is ideal
// (§3.2.2). Returns 0 before any host write.
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 0
	}
	return float64(f.nandWrites) / float64(f.hostWrites)
}

// LivePages returns the number of currently valid (mapped) pages; used by
// tests to verify conservation.
func (f *FTL) LivePages() uint64 {
	var n uint64
	for _, v := range f.valid {
		n += uint64(v)
	}
	return n
}

// MappedPages returns the number of logical pages with a current mapping.
func (f *FTL) MappedPages() uint64 {
	var n uint64
	for _, p := range f.l2p {
		if p >= 0 {
			n++
		}
	}
	return n
}
