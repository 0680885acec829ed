package device

import (
	"fmt"
	"math/bits"
)

// Translator is the interface both FTL models implement; SSD composes one.
type Translator interface {
	// WriteRange records host writes of the n logical pages from start, in
	// order, returning the number of pages the FTL had to relocate/copy as a
	// consequence.
	WriteRange(start, n uint64) (relocated uint64)
	// Trim invalidates logical page lpn.
	Trim(lpn uint64)
	// Stats returns lifetime accounting.
	Stats() FTLStats
	// WriteAmplification returns NAND/host writes (0 before any write).
	WriteAmplification() float64
	// LogicalBlocks returns the exported LBA-space size in pages.
	LogicalBlocks() uint64
}

var (
	_ Translator = (*FTL)(nil)
	_ Translator = (*HybridFTL)(nil)
)

// HybridFTL models a log-structured hybrid-mapped flash translation layer
// (FAST/BAST family): the drive keeps a small page-mapped log area
// (overprovisioned space) and data blocks mapped at erase-block
// granularity. Host writes append to the log; when the log fills, the FTL
// merges a victim logical erase block: the log's pages for that block plus
// every still-valid page of its home erase block are rewritten into a fresh
// erase block.
//
// This is the FTL behaviour §3.2.2 (Fig. 4 A) describes — "the FTL must
// first relocate all active data in the erase block elsewhere on the drive
// and then erase the entire block before writing new data there" — and it
// is what makes AA sizing matter: writing all free pages of an
// erase-block-multiple region dirties whole erase blocks, so merges copy
// little (a "switch merge" copies nothing), whereas writes scattered at
// sub-erase-block granularity force merges that copy most of the block.
type HybridFTL struct {
	logicalBlocks uint64
	ebPages       uint64
	numLEB        int

	// Per logical page state, packed as bitsets indexed by lpn.
	live  []uint64 // page's current data lives in its home erase block
	dirty []uint64 // page's current data lives in the log

	// Per logical erase block occupancy.
	dirtyCount []uint32 // pages currently dirty (latest version in log)
	logPages   []uint32 // log pages consumed (including superseded ones)

	logUsed uint64
	logCap  uint64

	hostWrites uint64
	nandWrites uint64
	relocated  uint64
	erases     uint64
	trims      uint64
	merges     uint64
	switchMrgs uint64
}

// HybridFTLConfig configures a HybridFTL.
type HybridFTLConfig struct {
	// LogicalBlocks is the exported LBA space in pages.
	LogicalBlocks uint64
	// PagesPerEraseBlock is the erase-block (merge) granularity.
	PagesPerEraseBlock uint64
	// Overprovision sizes the log area as a fraction of the logical space.
	Overprovision float64
}

// NewHybridFTL builds the model.
func NewHybridFTL(cfg HybridFTLConfig) *HybridFTL {
	if cfg.LogicalBlocks == 0 || cfg.PagesPerEraseBlock == 0 {
		panic("device: hybrid FTL requires non-zero sizes")
	}
	if cfg.Overprovision <= 0 {
		cfg.Overprovision = 0.07
	}
	numLEB := int((cfg.LogicalBlocks + cfg.PagesPerEraseBlock - 1) / cfg.PagesPerEraseBlock)
	logCap := uint64(float64(cfg.LogicalBlocks) * cfg.Overprovision)
	if logCap < cfg.PagesPerEraseBlock {
		logCap = cfg.PagesPerEraseBlock
	}
	words := (cfg.LogicalBlocks + 63) / 64
	return &HybridFTL{
		logicalBlocks: cfg.LogicalBlocks,
		ebPages:       cfg.PagesPerEraseBlock,
		numLEB:        numLEB,
		live:          make([]uint64, words),
		dirty:         make([]uint64, words),
		dirtyCount:    make([]uint32, numLEB),
		logPages:      make([]uint32, numLEB),
		logCap:        logCap,
	}
}

// LogicalBlocks implements Translator.
func (h *HybridFTL) LogicalBlocks() uint64 { return h.logicalBlocks }

func getBit(bs []uint64, i uint64) bool { return bs[i/64]&(1<<(i%64)) != 0 }
func clearBit(bs []uint64, i uint64)    { bs[i/64] &^= 1 << (i % 64) }

// wordMasks calls fn for every bitset word holding a page of [from, to), with
// the mask of those pages in it.
func wordMasks(from, to uint64, fn func(w int, m uint64)) {
	for from < to {
		w := from / 64
		hi := min(to, (w+1)*64)
		fn(int(w), ^uint64(0)>>(64-(hi-from))<<(from%64))
		from = hi
	}
}

// Write records a host write of logical page lpn: a chain of one page.
func (h *HybridFTL) Write(lpn uint64) (relocated uint64) { return h.WriteRange(lpn, 1) }

// WriteRange implements Translator. While the log has room the chain is
// programmed in bulk, up to an erase-block boundary at a time, with one
// masked OR per bitset word; a bulk step ends at the page that overfills the
// log. Once the log is full it goes a page at a time, merging after each page
// exactly as a lone Write would: the victim depends on the log's occupancy at
// that instant.
func (h *HybridFTL) WriteRange(start, n uint64) (relocated uint64) {
	if n == 0 {
		return 0
	}
	if start >= h.logicalBlocks || n > h.logicalBlocks-start {
		panic(fmt.Sprintf("device: LPN %d outside logical space %d", max(start, h.logicalBlocks), h.logicalBlocks))
	}
	for lpn, end := start, start+n; lpn < end; {
		k := min(end-lpn, h.ebPages-lpn%h.ebPages, h.logCap-h.logUsed+1)
		h.program(lpn, k)
		for h.logUsed > h.logCap {
			relocated += h.merge(h.pickVictim())
		}
		lpn += k
	}
	return relocated
}

// program appends k pages from lpn, all in one logical erase block, to the
// log.
func (h *HybridFTL) program(lpn, k uint64) {
	var fresh int
	wordMasks(lpn, lpn+k, func(w int, m uint64) {
		fresh += bits.OnesCount64(m &^ h.dirty[w])
		h.dirty[w] |= m
	})
	leb := lpn / h.ebPages
	h.dirtyCount[leb] += uint32(fresh)
	h.logPages[leb] += uint32(k)
	h.logUsed += k
	h.hostWrites += k
	h.nandWrites += k // programs into the log
}

// pickVictim selects the logical erase block occupying the most log pages.
func (h *HybridFTL) pickVictim() int {
	best, bestN := -1, uint32(0)
	for i, n := range h.logPages {
		if n > bestN {
			best, bestN = i, n
		}
	}
	if best < 0 {
		panic("device: hybrid FTL log full with no occupants")
	}
	return best
}

// merge folds logical erase block leb's log pages into a fresh home erase
// block, copying every live page that is not superseded by the log. It walks
// the block a bitset word at a time.
func (h *HybridFTL) merge(leb int) (copied uint64) {
	base := uint64(leb) * h.ebPages
	end := min(base+h.ebPages, h.logicalBlocks)
	wordMasks(base, end, func(w int, m uint64) {
		// A valid page only in the old home block is copied. A page whose
		// latest version is in the log is rewritten into the new home block
		// (its program was charged when it entered the log; a pure switch
		// merge has no pages copied from home, only log pages adopted —
		// modeled below).
		dirty := h.dirty[w] & m
		copied += uint64(bits.OnesCount64(h.live[w] & m &^ dirty))
		h.live[w] |= dirty
		h.dirty[w] &^= m
	})
	if copied == 0 {
		// Switch merge: the log block(s) become the home block; no data
		// moves and no extra programs happen.
		h.switchMrgs++
	} else {
		h.nandWrites += copied
		h.relocated += copied
	}
	h.merges++
	h.erases++
	h.logUsed -= uint64(h.logPages[leb])
	h.logPages[leb] = 0
	h.dirtyCount[leb] = 0
	return copied
}

// Trim implements Translator.
func (h *HybridFTL) Trim(lpn uint64) {
	if lpn >= h.logicalBlocks {
		panic(fmt.Sprintf("device: LPN %d outside logical space %d", lpn, h.logicalBlocks))
	}
	h.trims++
	leb := lpn / h.ebPages
	if getBit(h.dirty, lpn) {
		clearBit(h.dirty, lpn)
		h.dirtyCount[leb]--
	}
	clearBit(h.live, lpn)
}

// Stats implements Translator.
func (h *HybridFTL) Stats() FTLStats {
	return FTLStats{
		HostWrites: h.hostWrites,
		NANDWrites: h.nandWrites,
		Relocated:  h.relocated,
		Erases:     h.erases,
		Trims:      h.trims,
	}
}

// Merges returns (total merges, switch merges).
func (h *HybridFTL) Merges() (total, switches uint64) { return h.merges, h.switchMrgs }

// WriteAmplification implements Translator.
func (h *HybridFTL) WriteAmplification() float64 {
	if h.hostWrites == 0 {
		return 0
	}
	return float64(h.nandWrites) / float64(h.hostWrites)
}

// LogUsed returns the current log occupancy in pages (for tests).
func (h *HybridFTL) LogUsed() uint64 { return h.logUsed }
