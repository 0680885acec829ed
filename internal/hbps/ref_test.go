package hbps

// The map-indexed HBPS this package had before its position index became a
// dense array and Replenish a counting sort, kept verbatim as the oracle of
// the differential tests (FuzzHBPSOps, TestHBPSOpsMatchReference): the same
// operation sequence must leave both with the same list, histogram, counters
// and pages. Only what those tests drive is here.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"waflfs/internal/aa"
)

type refHBPS struct {
	cfg     Config
	numBins int
	counts  []uint32
	listed  []uint32
	index   []int32
	list    []aa.ID
	pos     map[aa.ID]int32
	total   uint64
	m       Metrics
}

func newRef(cfg Config) *refHBPS {
	if cfg.MaxScore == 0 || cfg.BinWidth == 0 || cfg.MaxScore%cfg.BinWidth != 0 {
		panic(fmt.Sprintf("hbps: invalid geometry max=%d width=%d", cfg.MaxScore, cfg.BinWidth))
	}
	if cfg.ListCap <= 0 {
		panic("hbps: non-positive list capacity")
	}
	nb := int(cfg.MaxScore / cfg.BinWidth)
	h := &refHBPS{
		cfg:     cfg,
		numBins: nb,
		counts:  make([]uint32, nb),
		listed:  make([]uint32, nb),
		index:   make([]int32, nb),
		list:    make([]aa.ID, 0, cfg.ListCap),
		pos:     make(map[aa.ID]int32, cfg.ListCap),
	}
	for b := range h.index {
		h.index[b] = -1
	}
	return h
}

func (h *refHBPS) Bin(score uint32) int {
	if score > h.cfg.MaxScore {
		panic(fmt.Sprintf("hbps: score %d exceeds max %d", score, h.cfg.MaxScore))
	}
	b := int((h.cfg.MaxScore - score) / h.cfg.BinWidth)
	if b == h.numBins { // score == 0
		b = h.numBins - 1
	}
	return b
}

func (h *refHBPS) EachListed(yield func(id aa.ID, bin int)) {
	for b := 0; b < h.numBins; b++ {
		if h.listed[b] == 0 {
			continue
		}
		first := h.index[b]
		for i := int32(0); i < int32(h.listed[b]); i++ {
			yield(h.list[first+i], b)
		}
	}
}

func (h *refHBPS) Listed(id aa.ID) bool {
	_, ok := h.pos[id]
	return ok
}

func (h *refHBPS) Track(id aa.ID, score uint32) {
	h.m.Tracks++
	b := h.Bin(score)
	h.counts[b]++
	h.total++
	h.tryList(id, b)
}

func (h *refHBPS) Untrack(id aa.ID, score uint32) {
	h.m.Untracks++
	b := h.Bin(score)
	if h.counts[b] == 0 {
		panic(fmt.Sprintf("hbps: untrack underflow in bin %d", b))
	}
	h.counts[b]--
	h.total--
	if h.Listed(id) {
		h.removeListed(id)
	}
}

func (h *refHBPS) Update(id aa.ID, oldScore, newScore uint32) {
	bo, bn := h.Bin(oldScore), h.Bin(newScore)
	h.m.Updates++
	if bo != bn {
		h.m.BinMigrations++
		if h.counts[bo] == 0 {
			panic(fmt.Sprintf("hbps: update underflow in bin %d", bo))
		}
		h.counts[bo]--
		h.counts[bn]++
	}
	if h.Listed(id) {
		if bo == bn {
			return
		}
		h.removeListed(id)
		h.tryList(id, bn)
		return
	}
	if bo != bn {
		h.tryList(id, bn)
	}
}

func (h *refHBPS) PopBest() (aa.ID, bool) {
	if len(h.list) == 0 {
		return 0, false
	}
	id := h.list[0]
	h.m.Pops++
	h.removeListed(id)
	return id, true
}

func (h *refHBPS) worstListedBin() int {
	for b := h.numBins - 1; b >= 0; b-- {
		if h.listed[b] > 0 {
			return b
		}
	}
	return -1
}

func (h *refHBPS) tryList(id aa.ID, b int) bool {
	if len(h.list) >= h.cfg.ListCap {
		w := h.worstListedBin()
		if w < 0 || b >= w {
			return false
		}
		h.evictLast(w)
	}
	// Open a slot at the end of segment b by moving one element per listed
	// bin after b: each bin's first element becomes its last, shifting the
	// vacancy left ("only one AA needs to be moved down from each bin").
	h.list = append(h.list, 0)
	for c := h.numBins - 1; c > b; c-- {
		if h.listed[c] == 0 {
			continue
		}
		first := h.index[c]
		dest := first + int32(h.listed[c])
		moved := h.list[first]
		h.list[dest] = moved
		h.pos[moved] = dest
		h.index[c] = first + 1
	}
	// The vacancy now sits at the end of segment b: the prefix sum of
	// listed counts through b.
	var slot int32
	for c := 0; c <= b; c++ {
		slot += int32(h.listed[c])
	}
	h.list[slot] = id
	h.pos[id] = slot
	if h.listed[b] == 0 {
		h.index[b] = slot
	}
	h.listed[b]++
	return true
}

func (h *refHBPS) evictLast(w int) {
	h.m.Evictions++
	last := len(h.list) - 1
	delete(h.pos, h.list[last])
	h.list = h.list[:last]
	h.listed[w]--
	if h.listed[w] == 0 {
		h.index[w] = -1
	}
}

func (h *refHBPS) binOfListPos(p int32) int {
	for b := 0; b < h.numBins; b++ {
		if h.listed[b] == 0 {
			continue
		}
		if p >= h.index[b] && p < h.index[b]+int32(h.listed[b]) {
			return b
		}
	}
	panic(fmt.Sprintf("hbps: list position %d not in any segment", p))
}

func (h *refHBPS) removeListed(id aa.ID) {
	p, ok := h.pos[id]
	if !ok {
		panic(fmt.Sprintf("hbps: item %d not listed", id))
	}
	b := h.binOfListPos(p)
	// Replace p with the last element of its own segment.
	segLast := h.index[b] + int32(h.listed[b]) - 1
	if p != segLast {
		moved := h.list[segLast]
		h.list[p] = moved
		h.pos[moved] = p
	}
	h.listed[b]--
	if h.listed[b] == 0 {
		h.index[b] = -1
	}
	// The gap is at segLast; slide one element up from each later segment.
	gap := segLast
	for c := b + 1; c < h.numBins; c++ {
		if h.listed[c] == 0 {
			continue
		}
		last := h.index[c] + int32(h.listed[c]) - 1
		moved := h.list[last]
		h.list[gap] = moved
		h.pos[moved] = gap
		h.index[c]--
		gap = last
	}
	h.list = h.list[:len(h.list)-1]
	delete(h.pos, id)
}

func (h *refHBPS) Replenish(items func(yield func(id aa.ID, score uint32))) {
	h.m.Replenishes++
	for b := range h.counts {
		h.counts[b] = 0
		h.listed[b] = 0
		h.index[b] = -1
	}
	h.list = h.list[:0]
	h.pos = make(map[aa.ID]int32, h.cfg.ListCap)
	h.total = 0

	// Bucket IDs by bin, keeping at most ListCap of the best.
	buckets := make([][]aa.ID, h.numBins)
	items(func(id aa.ID, score uint32) {
		b := h.Bin(score)
		h.counts[b]++
		h.total++
		buckets[b] = append(buckets[b], id)
	})
	for b := 0; b < h.numBins && len(h.list) < h.cfg.ListCap; b++ {
		for _, id := range buckets[b] {
			if len(h.list) >= h.cfg.ListCap {
				break
			}
			if h.listed[b] == 0 {
				h.index[b] = int32(len(h.list))
			}
			h.list = append(h.list, id)
			h.pos[id] = int32(len(h.list) - 1)
			h.listed[b]++
		}
	}
}

func (h *refHBPS) Marshal() []byte {
	if h.numBins > MaxBins {
		panic(fmt.Sprintf("hbps: %d bins exceed one histogram page (max %d)", h.numBins, MaxBins))
	}
	buf := make([]byte, h.cfg.MarshaledSize())
	le := binary.LittleEndian
	le.PutUint32(buf[offMagic:], magic)
	le.PutUint16(buf[offVersion:], version)
	le.PutUint16(buf[offBinCount:], uint16(h.numBins))
	le.PutUint32(buf[offBinWidth:], h.cfg.BinWidth)
	le.PutUint32(buf[offMaxScore:], h.cfg.MaxScore)
	le.PutUint64(buf[offTotal:], h.total)
	le.PutUint32(buf[offListLen:], uint32(len(h.list)))
	le.PutUint32(buf[offListCap:], uint32(h.cfg.ListCap))
	for b := 0; b < h.numBins; b++ {
		o := offBins + b*binStride
		le.PutUint32(buf[o:], h.counts[b])
		le.PutUint32(buf[o+4:], h.listed[b])
		le.PutUint32(buf[o+8:], uint32(h.index[b]))
	}
	for i, id := range h.list {
		le.PutUint32(buf[PageSize+4*i:], uint32(id))
	}
	return buf
}

func loadRef(buf []byte) (*refHBPS, error) {
	if len(buf) < 2*PageSize {
		return nil, fmt.Errorf("hbps: %d bytes, need at least two pages", len(buf))
	}
	le := binary.LittleEndian
	if le.Uint32(buf[offMagic:]) != magic {
		return nil, errors.New("hbps: bad magic")
	}
	if v := le.Uint16(buf[offVersion:]); v != version {
		return nil, fmt.Errorf("hbps: unsupported version %d", v)
	}
	nb := int(le.Uint16(buf[offBinCount:]))
	bw := le.Uint32(buf[offBinWidth:])
	ms := le.Uint32(buf[offMaxScore:])
	if nb == 0 || nb > MaxBins || bw == 0 || ms != bw*uint32(nb) {
		return nil, fmt.Errorf("hbps: inconsistent geometry bins=%d width=%d max=%d", nb, bw, ms)
	}
	listCap := int(le.Uint32(buf[offListCap:]))
	listLen := int(le.Uint32(buf[offListLen:]))
	cfg := Config{MaxScore: ms, BinWidth: bw, ListCap: listCap}
	if listCap <= 0 || len(buf) < cfg.MarshaledSize() {
		return nil, fmt.Errorf("hbps: buffer %d bytes too small for capacity %d", len(buf), listCap)
	}
	if listLen > listCap {
		return nil, fmt.Errorf("hbps: list length %d exceeds capacity %d", listLen, listCap)
	}
	h := newRef(cfg)
	h.total = le.Uint64(buf[offTotal:])
	for b := 0; b < nb; b++ {
		o := offBins + b*binStride
		h.counts[b] = le.Uint32(buf[o:])
		h.listed[b] = le.Uint32(buf[o+4:])
		h.index[b] = int32(le.Uint32(buf[o+8:]))
	}
	h.list = h.list[:0]
	for i := 0; i < listLen; i++ {
		id := aa.ID(le.Uint32(buf[PageSize+4*i:]))
		h.list = append(h.list, id)
		h.pos[id] = int32(i)
	}
	// Of the old CheckInvariants only the duplicate check is kept (a map
	// absorbed a repeated id); the tests hand loadRef pages Marshal wrote.
	if len(h.pos) != len(h.list) {
		return nil, fmt.Errorf("hbps: corrupt pages: pos map size %d != list len %d", len(h.pos), len(h.list))
	}
	return h, nil
}
