package hbps

import (
	"encoding/binary"
	"errors"
	"fmt"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

// On-disk layout. The HBPS serializes to (1 + listPages) 4KiB pages: the
// histogram page followed by the list page(s). These are the exact bytes
// the RAID-agnostic TopAA metafile pins in the buffer cache (§3.4), so
// mounting a FlexVol needs only a two-block read and an O(list) index
// rebuild.
const (
	// PageSize is the metafile block size.
	PageSize = block.BlockSize
	// IDsPerListPage is how many 4-byte AA IDs fit in one list page.
	IDsPerListPage = PageSize / 4

	magic   = 0x53504248 // "HBPS" little-endian
	version = 1

	offMagic    = 0
	offVersion  = 4
	offBinCount = 6
	offBinWidth = 8
	offMaxScore = 12
	offTotal    = 16
	offListLen  = 24
	offListCap  = 28
	offBins     = 64
	binStride   = 12 // count u32, listed u32, index i32
)

// MaxBins is the largest bin count one histogram page can describe.
const MaxBins = (PageSize - offBins) / binStride

// ListPages returns the number of list pages needed for the configured
// capacity.
func (c Config) ListPages() int {
	return (c.ListCap + IDsPerListPage - 1) / IDsPerListPage
}

// MarshaledSize returns the serialized size in bytes.
func (c Config) MarshaledSize() int { return (1 + c.ListPages()) * PageSize }

// Marshal serializes the structure into its page representation.
func (h *HBPS) Marshal() []byte {
	buf := make([]byte, h.cfg.MarshaledSize())
	h.MarshalTo(buf)
	return buf
}

// MarshalTo writes the page representation over buf, which must be exactly
// Config().MarshaledSize() bytes and may hold anything: every byte is
// rewritten, so a reused buffer comes out as a fresh one would.
func (h *HBPS) MarshalTo(buf []byte) {
	if h.numBins > MaxBins {
		panic(fmt.Sprintf("hbps: %d bins exceed one histogram page (max %d)", h.numBins, MaxBins))
	}
	if len(buf) != h.cfg.MarshaledSize() {
		panic(fmt.Sprintf("hbps: marshal into %d bytes, want %d", len(buf), h.cfg.MarshaledSize()))
	}
	le := binary.LittleEndian
	clear(buf[:offBins])
	le.PutUint32(buf[offMagic:], magic)
	le.PutUint16(buf[offVersion:], version)
	le.PutUint16(buf[offBinCount:], uint16(h.numBins))
	le.PutUint32(buf[offBinWidth:], h.cfg.BinWidth)
	le.PutUint32(buf[offMaxScore:], h.cfg.MaxScore)
	le.PutUint64(buf[offTotal:], h.total)
	le.PutUint32(buf[offListLen:], uint32(len(h.list)))
	le.PutUint32(buf[offListCap:], uint32(h.cfg.ListCap))
	o := offBins
	for b := 0; b < h.numBins; b++ {
		le.PutUint32(buf[o:], h.bins[b].count)
		le.PutUint32(buf[o+4:], h.bins[b].listed)
		le.PutUint32(buf[o+8:], uint32(h.bins[b].index))
		o += binStride
	}
	clear(buf[o:PageSize])
	o = PageSize
	for _, id := range h.list {
		le.PutUint32(buf[o:], uint32(id))
		o += 4
	}
	clear(buf[o:])
}

// MaxLoadItems is the item-id ceiling Load applies when the caller gives no
// tighter one: 2^20 AAs of 32k 4KiB blocks is a 128 TiB volume, past the
// largest FlexVol. A listed id indexes the position array, so the ceiling
// also bounds what a damaged page can make Load allocate (4 MiB).
const MaxLoadItems = 1 << 20

// Load reconstructs an HBPS from its page representation, rebuilding the
// in-memory position index. It returns an error (never panics) on corrupt
// input, so callers can fall back to a full bitmap walk, as WAFL does when
// a TopAA metafile is damaged. Listed ids must lie below MaxLoadItems; a
// caller that knows its item count should use LoadBounded.
func Load(buf []byte) (*HBPS, error) { return LoadBounded(buf, MaxLoadItems) }

// LoadBounded is Load for a structure known to track ids in [0, items): the
// pages are rejected as corrupt if they list any other id or track more than
// items in total. The page is untrusted, and a listed id becomes an array
// index, so every id is checked against the bound before anything is sized
// by it. buf is only read.
func LoadBounded(buf []byte, items int) (*HBPS, error) {
	cfg, err := pagesConfig(buf)
	if err != nil {
		return nil, err
	}
	h := New(cfg)
	if err := h.LoadFrom(buf, items); err != nil {
		return nil, err
	}
	return h, nil
}

// LoadFrom is LoadBounded into h's own storage, as a TopAA-seeded remount
// reloads a volume's HBPS where it already lives. Pages of another geometry
// are rejected before h is touched. Any later error leaves h inconsistent
// until a Replenish, which rebuilds every field; on success h reads as the
// structure LoadBounded would return, Metrics included.
func (h *HBPS) LoadFrom(buf []byte, items int) error {
	cfg, err := pagesConfig(buf)
	if err != nil {
		return err
	}
	if cfg != h.cfg {
		return fmt.Errorf("hbps: pages describe %+v, structure is %+v", cfg, h.cfg)
	}
	le := binary.LittleEndian
	listLen := int(le.Uint32(buf[offListLen:]))
	if listLen > cfg.ListCap {
		return fmt.Errorf("hbps: list length %d exceeds capacity %d", listLen, cfg.ListCap)
	}
	total := le.Uint64(buf[offTotal:])
	if total > uint64(items) {
		return fmt.Errorf("hbps: corrupt pages: %d items tracked, at most %d exist", total, items)
	}
	ids := buf[PageSize : PageSize+4*listLen]
	top := -1
	for o := 0; o < len(ids); o += 4 {
		id := int(le.Uint32(ids[o:]))
		if id >= items {
			return fmt.Errorf("hbps: corrupt pages: listed item %d, ids end at %d", id, items)
		}
		top = max(top, id)
	}
	for _, id := range h.list {
		h.pos[id] = -1
	}
	h.total = total
	for b := range h.bins {
		o := offBins + b*binStride
		h.bins[b].count = le.Uint32(buf[o:])
		h.bins[b].listed = le.Uint32(buf[o+4:])
		h.bins[b].index = int32(le.Uint32(buf[o+8:]))
	}
	if top >= len(h.pos) {
		h.growPos(top + 1)
	}
	h.list = h.list[:listLen]
	for i := range h.list {
		id := aa.ID(le.Uint32(ids[4*i:]))
		if h.pos[id] >= 0 {
			h.list = h.list[:i]
			return fmt.Errorf("hbps: corrupt pages: item %d listed twice", id)
		}
		h.list[i] = id
		h.pos[id] = int32(i)
	}
	if err := h.CheckInvariants(); err != nil {
		return fmt.Errorf("hbps: corrupt pages: %w", err)
	}
	h.m = Metrics{}
	return nil
}

// pagesConfig reads and checks the geometry the histogram page records.
func pagesConfig(buf []byte) (Config, error) {
	if len(buf) < 2*PageSize {
		return Config{}, fmt.Errorf("hbps: %d bytes, need at least two pages", len(buf))
	}
	le := binary.LittleEndian
	if le.Uint32(buf[offMagic:]) != magic {
		return Config{}, errors.New("hbps: bad magic")
	}
	if v := le.Uint16(buf[offVersion:]); v != version {
		return Config{}, fmt.Errorf("hbps: unsupported version %d", v)
	}
	nb := int(le.Uint16(buf[offBinCount:]))
	bw := le.Uint32(buf[offBinWidth:])
	ms := le.Uint32(buf[offMaxScore:])
	if nb == 0 || nb > MaxBins || bw == 0 || ms != bw*uint32(nb) {
		return Config{}, fmt.Errorf("hbps: inconsistent geometry bins=%d width=%d max=%d", nb, bw, ms)
	}
	cfg := Config{MaxScore: ms, BinWidth: bw, ListCap: int(le.Uint32(buf[offListCap:]))}
	if cfg.ListCap <= 0 || len(buf) < cfg.MarshaledSize() {
		return Config{}, fmt.Errorf("hbps: buffer %d bytes too small for capacity %d", len(buf), cfg.ListCap)
	}
	return cfg, nil
}
