// Package topaa implements the TopAA metafile (§3.4 of the paper): the
// persistent form of the allocation-area caches, read at mount time so
// write allocation can begin without a linear walk of the bitmap metafiles.
//
// Two encodings exist, matching the two cache types:
//
//   - RAID-aware: one 4KiB block per RAID group holding the 512 best AAs
//     and their scores. This seeds the max-heap with high-quality AAs;
//     client operations and CPs run on the seed while a background walk
//     rebuilds the full heap.
//
//   - RAID-agnostic: two 4KiB blocks per FlexVol (or non-RAID store) into
//     which the HBPS structure is embedded verbatim — the same pages stay
//     pinned in the buffer cache, so almost no I/O or CPU is needed at
//     mount.
//
// The Store type simulates the metafile itself: a set of named block runs
// with read/write accounting (for the Fig. 10 experiment) and a full
// failure model. Every 4KiB block is protected at 512-byte chunk
// granularity — a checksum and generation stamp per chunk plus one XOR
// parity chunk — so loads distinguish four failure classes:
//
//   - missing: the metafile was never written (or a failed save degraded
//     to "no metafile");
//   - stale: all chunks carry an older generation than the store — the CP
//     that should have rewritten them crashed before the save landed;
//   - torn: chunks within one metafile carry mixed generations — the
//     crash interrupted the save itself;
//   - damaged: a chunk fails its checksum or reports a media error. One
//     bad chunk per block is RAID-reconstructed from the parity chunk and
//     repaired in place; anything beyond that is unrecoverable.
//
// Missing, stale, torn, and unrecoverable damage all make the caller fall
// back to recomputing the caches from the bitmaps — the job WAFL Iron
// performs online. Reconstruction and every failure class are counted so
// recovery behaviour can be asserted and exported.
package topaa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/faultinject"
	"waflfs/internal/hbps"
	"waflfs/internal/heapcache"
	"waflfs/internal/raid"
)

// RAIDAwareEntries is the number of (AA, score) pairs one 4KiB TopAA block
// holds for a RAID-aware cache: 512 entries of 8 bytes.
const RAIDAwareEntries = block.BlockSize / 8

// invalidID marks unused entry slots.
const invalidID = ^uint32(0)

// Failure classes reported by Store loads. Callers test with errors.Is and
// fall back to a bitmap walk on any of them; the classes only differ in
// how the fallback is counted.
var (
	// ErrMissing: no metafile exists under the name.
	ErrMissing = errors.New("topaa: metafile missing")
	// ErrStale: the metafile is intact but was written by an earlier CP
	// generation — its scores predate mutations the bitmap already holds.
	ErrStale = errors.New("topaa: metafile stale")
	// ErrTorn: chunks carry mixed generations — the save was interrupted.
	ErrTorn = errors.New("topaa: metafile torn")
	// ErrDamaged: media damage beyond what RAID can reconstruct, or a
	// structurally invalid decode.
	ErrDamaged = errors.New("topaa: metafile damaged")
)

// LoadOutcome classifies a successful or failed metafile load.
type LoadOutcome int

const (
	// LoadFailed: the load returned an error; the caller must fall back.
	LoadFailed LoadOutcome = iota
	// LoadClean: every chunk verified on the first read.
	LoadClean
	// LoadReconstructed: at least one chunk was rebuilt from parity and
	// repaired in place before the decode succeeded.
	LoadReconstructed
)

// String implements fmt.Stringer.
func (o LoadOutcome) String() string {
	switch o {
	case LoadFailed:
		return "failed"
	case LoadClean:
		return "clean"
	case LoadReconstructed:
		return "reconstructed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// MarshalRAIDAware encodes up to RAIDAwareEntries of the best AAs (as
// produced by heapcache.Cache.TopK, descending score order) into one 4KiB
// block. It returns an error if any entry does not fit the 32-bit on-disk
// fields — e.g. an AA configured larger than 2^32-1 blocks — so the CP
// persist path can degrade to "no metafile" instead of crashing.
func MarshalRAIDAware(entries []heapcache.Entry) ([]byte, error) {
	buf := make([]byte, block.BlockSize)
	if err := marshalRAIDAwareTo(buf, entries); err != nil {
		return nil, err
	}
	return buf, nil
}

// marshalRAIDAwareTo is MarshalRAIDAware over a caller-owned block; every
// byte of buf is rewritten.
func marshalRAIDAwareTo(buf []byte, entries []heapcache.Entry) error {
	if len(entries) > RAIDAwareEntries {
		entries = entries[:RAIDAwareEntries]
	}
	le := binary.LittleEndian
	for i, e := range entries {
		if uint64(e.ID) >= uint64(invalidID) || e.Score > uint64(^uint32(0)) {
			return fmt.Errorf("topaa: entry (%d,%d) does not fit 32-bit encoding", e.ID, e.Score)
		}
		le.PutUint32(buf[8*i:], uint32(e.ID))
		le.PutUint32(buf[8*i+4:], uint32(e.Score))
	}
	tail := buf[8*len(entries) : block.BlockSize]
	for i := range tail {
		tail[i] = 0xff // invalid-fill: empty slots read back as invalidID
	}
	return nil
}

// MaxLoadAAs is the AA-id ceiling Store.LoadRAIDAware applies when the
// caller gives no tighter one: a 16 TiB device holds 2^32 4KiB blocks, which
// the 4k-stripe HDD default (§3.2.1) carves into 2^20 AAs. The duplicate
// check keeps a bit per id up to the largest listed, so the ceiling also
// bounds what a damaged block can make a load allocate (128 KiB).
const MaxLoadAAs = 1 << 20

// LoadRAIDAware decodes a RAID-aware TopAA block for a group of numAAs AAs.
// It validates that entries are densely packed, in descending score order
// (the order TopK writes), and name distinct AAs below numAAs, returning an
// error on any inconsistency so mount can fall back to a bitmap walk.
func LoadRAIDAware(buf []byte, numAAs int) ([]heapcache.Entry, error) {
	var d raidDecoder
	return d.decode(buf, numAAs)
}

// raidDecoder decodes RAID-aware blocks into storage it keeps: the entries,
// and the duplicate check's bitset over AA ids, all zero between decodes.
type raidDecoder struct {
	entries []heapcache.Entry
	seen    []uint64
}

// decode is LoadRAIDAware into d's storage; the entries it returns are d's
// until the next decode.
func (d *raidDecoder) decode(buf []byte, numAAs int) ([]heapcache.Entry, error) {
	if len(buf) != block.BlockSize {
		return nil, fmt.Errorf("topaa: RAID-aware block is %d bytes, want %d", len(buf), block.BlockSize)
	}
	le := binary.LittleEndian
	n := 0
	for n < RAIDAwareEntries && le.Uint32(buf[8*n:]) != invalidID {
		n++
	}
	for i := n; i < RAIDAwareEntries; i++ {
		if le.Uint32(buf[8*i:]) != invalidID {
			return nil, errors.New("topaa: entry after terminator")
		}
	}
	out, top := d.entries[:0], uint32(0)
	for i := 0; i < n; i++ {
		id := le.Uint32(buf[8*i:])
		if uint64(id) >= uint64(numAAs) {
			return nil, fmt.Errorf("topaa: AA %d outside the group's %d", id, numAAs)
		}
		e := heapcache.Entry{ID: aa.ID(id), Score: uint64(le.Uint32(buf[8*i+4:]))}
		if i > 0 && out[i-1].Score < e.Score {
			return nil, errors.New("topaa: scores not descending")
		}
		out, top = append(out, e), max(top, id)
	}
	d.entries = out
	if words := int(top/64) + 1; len(d.seen) < words {
		d.seen = make([]uint64, words)
	}
	var err error
	for _, e := range out {
		w, m := e.ID/64, uint64(1)<<(e.ID%64)
		if d.seen[w]&m != 0 {
			err = fmt.Errorf("topaa: duplicate AA %d", e.ID)
			break
		}
		d.seen[w] |= m
	}
	for _, e := range out {
		d.seen[e.ID/64] = 0 // every word a mark went to
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// protBlock is the chunk-granularity protection for one 4KiB metafile
// block: a CRC and generation stamp per 512-byte chunk, plus an XOR parity
// chunk that can rebuild any single lost chunk.
type protBlock struct {
	crcs             [block.ChunksPerBlock]uint32
	gens             [block.ChunksPerBlock]uint64
	unreadable       [block.ChunksPerBlock]bool
	parity           [block.ChunkSize]byte
	parityCRC        uint32
	parityUnreadable bool
}

// protect recomputes the protection of one 4KiB block whose contents are now
// blk, written whole at gen. Nothing of the previous protection survives —
// media-error marks included, since the chunks were just rewritten — so a
// block protected in place is indistinguishable from a new one.
func (pb *protBlock) protect(blk []byte, gen uint64) {
	*pb = protBlock{}
	for c := 0; c < block.ChunksPerBlock; c++ {
		ch := blk[c*block.ChunkSize : (c+1)*block.ChunkSize]
		pb.crcs[c] = crc32.ChecksumIEEE(ch)
		pb.gens[c] = gen
		raid.XORInto(pb.parity[:], ch)
	}
	pb.parityCRC = crc32.ChecksumIEEE(pb.parity[:])
}

// metafile is one named block run plus its protection. It is a fixed-size
// object: a save of the same size rewrites it where it is. dec is where its
// RAID-aware loads decode: a key is owned by one space, so what a load
// returns stays that space's until it loads the key again.
type metafile struct {
	data []byte
	prot []protBlock
	dec  raidDecoder
}

func (m *metafile) nblocks() int { return len(m.data) / block.BlockSize }

// overwrite replaces the whole image with data (of the metafile's size),
// protected at gen.
func (m *metafile) overwrite(data []byte, gen uint64) {
	copy(m.data, data)
	for b := range m.prot {
		m.prot[b].protect(m.data[b*block.BlockSize:(b+1)*block.BlockSize], gen)
	}
}

// newMetafile builds a fully protected metafile for data at gen.
func newMetafile(data []byte, gen uint64) *metafile {
	m := &metafile{data: make([]byte, len(data)), prot: make([]protBlock, len(data)/block.BlockSize)}
	m.overwrite(data, gen)
	return m
}

// RecoveryStats counts the failure and recovery events the store has seen.
type RecoveryStats struct {
	Reconstructions uint64 // chunks rebuilt from parity and repaired in place
	SaveErrors      uint64 // saves that degraded to "no metafile"
	StaleLoads      uint64 // loads rejected as ErrStale
	TornLoads       uint64 // loads rejected as ErrTorn
	DamagedLoads    uint64 // loads rejected as ErrDamaged
}

// Store simulates the TopAA metafile's blocks, keyed by file-system
// instance name (one aggregate or FlexVol per key). It counts block reads
// and writes so experiments can charge mount-time I/O, stamps every save
// with the store's CP generation, and routes saves through an optional
// fault injector. All methods are safe for concurrent use: parallel mount
// rebuilds load every space's metafile from worker shards, and each key is
// owned by exactly one space. Saves marshal into scratch the store owns and
// loads decode straight from the metafile's bytes, both under the store's
// lock, so concurrent loads take turns on a decode of a few microseconds
// instead of each copying the image out first. A load decodes into storage
// that outlives it: a RAID-aware seed into scratch the metafile keeps, an
// HBPS into the caller's own (LoadAgnosticInto).
type Store struct {
	mu     sync.Mutex
	blocks map[string]*metafile
	gen    uint64

	reads  uint64 // blocks read (failed probes charge one)
	writes uint64 // blocks written

	rec RecoveryStats

	inj *faultinject.Injector // nil = no faults

	// Save scratch, touched only under mu: the image being marshalled and
	// the heap's exported top. A steady-state save allocates nothing.
	image []byte
	topk  []heapcache.Entry
}

// NewStore creates an empty metafile store.
func NewStore() *Store {
	return &Store{blocks: make(map[string]*metafile)}
}

// SetInjector routes subsequent saves and damage through inj. A nil
// injector disables fault injection.
func (s *Store) SetInjector(inj *faultinject.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = inj
}

// BeginGeneration advances the store's CP generation; the CP's flush stage
// (wafl's Aggregate.commitSealed) calls it once per CP before any TopAA save, so a crash that drops this CP's saves
// leaves the previous generation detectably stale.
func (s *Store) BeginGeneration() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
}

// Generation returns the current CP generation.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// scratchLocked returns the store's image scratch sized to n bytes.
func (s *Store) scratchLocked(n int) []byte {
	if cap(s.image) < n {
		s.image = make([]byte, n)
	}
	return s.image[:n]
}

// saveLocked persists data (a multiple of the block size, in the store's
// scratch) under name, applying the injector's verdict: dropped saves never
// reach the map, torn saves land only their first k chunks over the previous
// image. A whole save over a metafile of the same size rewrites it in place.
// s.mu is held on entry and on return.
func (s *Store) saveLocked(name string, data []byte) {
	nblocks := len(data) / block.BlockSize
	var dec faultinject.SaveDecision
	if inj := s.inj; inj != nil {
		// The injector has its own lock and ApplyDamage calls back into the
		// store, so consult it without holding s.mu — and the scratch is
		// this save's only while the lock is held, so take a copy along.
		data = append([]byte(nil), data...)
		s.mu.Unlock()
		dec = inj.OnSave(name, nblocks*block.ChunksPerBlock)
		s.mu.Lock()
	}
	if dec.Drop {
		return
	}
	s.writes += uint64(nblocks)
	if dec.TornChunks > 0 {
		s.tornWriteLocked(name, data, dec.TornChunks)
		return
	}
	if m := s.blocks[name]; m != nil && len(m.data) == len(data) {
		m.overwrite(data, s.gen)
		return
	}
	s.blocks[name] = newMetafile(data, s.gen)
}

// tornWriteLocked lands only the first k chunks of data over the previous
// image (zeros at generation 0 if the metafile is new or resized), leaving
// the parity chunks untouched — exactly the mixed-generation state a crash
// mid-write produces.
func (s *Store) tornWriteLocked(name string, data []byte, k int) {
	old := s.blocks[name]
	if old == nil || len(old.data) != len(data) {
		old = newMetafile(make([]byte, len(data)), 0)
	}
	for c := 0; c < k; c++ {
		b, ch := c/block.ChunksPerBlock, c%block.ChunksPerBlock
		off := b*block.BlockSize + ch*block.ChunkSize
		chunk := data[off : off+block.ChunkSize]
		copy(old.data[off:], chunk)
		old.prot[b].crcs[ch] = crc32.ChecksumIEEE(chunk)
		old.prot[b].gens[ch] = s.gen
	}
	s.blocks[name] = old
}

// loadLocked reads the named metafile, verifying every chunk. A single bad
// chunk per block is rebuilt from parity and repaired in place; anything
// worse — or mixed/stale generations — fails with the matching sentinel
// error. The failed probe of a missing metafile charges one block read; a
// present metafile charges one read per block. The metafile returned is the
// store's own, not a copy: the caller holds s.mu, only reads its bytes, and
// is done with them before it unlocks.
func (s *Store) loadLocked(name string) (*metafile, LoadOutcome, error) {
	m, ok := s.blocks[name]
	if !ok {
		s.reads++ // the probe that discovers the miss is a real I/O
		return nil, LoadFailed, fmt.Errorf("%w: no metafile for %q", ErrMissing, name)
	}
	nblocks := m.nblocks()
	s.reads += uint64(nblocks)

	reconstructed := false
	for b := 0; b < nblocks; b++ {
		pb := &m.prot[b]
		blk := m.data[b*block.BlockSize : (b+1)*block.BlockSize]
		var bad []int
		for c := 0; c < block.ChunksPerBlock; c++ {
			ch := blk[c*block.ChunkSize : (c+1)*block.ChunkSize]
			if pb.unreadable[c] || crc32.ChecksumIEEE(ch) != pb.crcs[c] {
				bad = append(bad, c)
			}
		}
		if len(bad) == 0 {
			continue
		}
		if len(bad) > 1 || pb.parityUnreadable || crc32.ChecksumIEEE(pb.parity[:]) != pb.parityCRC {
			s.rec.DamagedLoads++
			return nil, LoadFailed, fmt.Errorf("%w: %q block %d: %d bad chunks, parity lost=%v",
				ErrDamaged, name, b, len(bad), pb.parityUnreadable)
		}
		c := bad[0]
		survivors := make([][]byte, 0, block.ChunksPerBlock-1)
		for o := 0; o < block.ChunksPerBlock; o++ {
			if o != c {
				survivors = append(survivors, blk[o*block.ChunkSize:(o+1)*block.ChunkSize])
			}
		}
		rebuilt := raid.XORReconstruct(pb.parity[:], survivors...)
		if crc32.ChecksumIEEE(rebuilt) != pb.crcs[c] {
			s.rec.DamagedLoads++
			return nil, LoadFailed, fmt.Errorf("%w: %q block %d chunk %d failed checksum after reconstruction",
				ErrDamaged, name, b, c)
		}
		copy(blk[c*block.ChunkSize:], rebuilt)
		pb.unreadable[c] = false
		s.rec.Reconstructions++
		reconstructed = true
	}

	// Generation check: every chunk must carry one generation, and it must
	// be the store's current one. Mixed = the save tore; old = the save
	// was dropped by a crash.
	g0 := m.prot[0].gens[0]
	for b := range m.prot {
		for _, g := range m.prot[b].gens {
			if g != g0 {
				s.rec.TornLoads++
				return nil, LoadFailed, fmt.Errorf("%w: %q has chunks at generations %d and %d", ErrTorn, name, g0, g)
			}
		}
	}
	if g0 != s.gen {
		s.rec.StaleLoads++
		return nil, LoadFailed, fmt.Errorf("%w: %q at generation %d, store at %d", ErrStale, name, g0, s.gen)
	}

	out := LoadClean
	if reconstructed {
		out = LoadReconstructed
	}
	return m, out, nil
}

// SaveRAIDAware persists the cache's 512 best AAs under name. This runs at
// each CP boundary in WAFL; it costs one block write. If the cache cannot
// be encoded, the save degrades to "no metafile" — the stale previous
// image is removed so the next mount detectably falls back to a bitmap
// walk — and the error is returned for accounting.
func (s *Store) SaveRAIDAware(name string, c *heapcache.Cache) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.topk = c.AppendTopK(s.topk[:0], RAIDAwareEntries)
	buf := s.scratchLocked(block.BlockSize)
	if err := marshalRAIDAwareTo(buf, s.topk); err != nil {
		s.rec.SaveErrors++
		delete(s.blocks, name)
		return err
	}
	s.saveLocked(name, buf)
	return nil
}

// LoadRAIDAware reads the named block and decodes the seed entries,
// charging one block read (or one for the failed probe). Listed ids are held
// to MaxLoadAAs; a caller that knows its group's AA count should use
// LoadRAIDAwareBounded.
func (s *Store) LoadRAIDAware(name string) ([]heapcache.Entry, LoadOutcome, error) {
	return s.LoadRAIDAwareBounded(name, MaxLoadAAs)
}

// LoadRAIDAwareBounded is LoadRAIDAware for a group of numAAs AAs: a block
// naming any other AA is damaged. The entries are the metafile's decode
// scratch, good until the next load of name.
func (s *Store) LoadRAIDAwareBounded(name string, numAAs int) ([]heapcache.Entry, LoadOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, outcome, err := s.loadLocked(name)
	if err != nil {
		return nil, LoadFailed, err
	}
	entries, err := m.dec.decode(m.data, numAAs)
	if err != nil {
		s.rec.DamagedLoads++
		return nil, LoadFailed, fmt.Errorf("%w: %v", ErrDamaged, err)
	}
	return entries, outcome, nil
}

// SaveAgnostic persists an HBPS verbatim (two or more blocks) under name.
func (s *Store) SaveAgnostic(name string, h *hbps.HBPS) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := s.scratchLocked(h.Config().MarshaledSize())
	h.MarshalTo(buf)
	s.saveLocked(name, buf)
}

// LoadAgnostic reads and reconstructs the named HBPS, charging one read per
// block (or one for the failed probe). Listed ids are held to
// hbps.MaxLoadItems.
func (s *Store) LoadAgnostic(name string) (*hbps.HBPS, LoadOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, outcome, err := s.loadLocked(name)
	if err != nil {
		return nil, LoadFailed, err
	}
	h, err := hbps.Load(m.data)
	if err != nil {
		s.rec.DamagedLoads++
		return nil, LoadFailed, fmt.Errorf("%w: %v", ErrDamaged, err)
	}
	return h, outcome, nil
}

// LoadAgnosticInto is LoadAgnostic into h's own storage, for an HBPS known to
// track ids in [0, items) (hbps.LoadFrom): an image of another geometry, or
// that lists any other id or tracks more than items, is damaged. An image
// that fails to decode may leave h half-loaded (one of another geometry is
// rejected before h is touched), and h must then be rebuilt with Replenish.
func (s *Store) LoadAgnosticInto(name string, h *hbps.HBPS, items int) (LoadOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, outcome, err := s.loadLocked(name)
	if err != nil {
		return LoadFailed, err
	}
	if err := h.LoadFrom(m.data, items); err != nil {
		s.rec.DamagedLoads++
		return LoadFailed, fmt.Errorf("%w: %v", ErrDamaged, err)
	}
	return outcome, nil
}

// Has reports whether a metafile exists for name.
func (s *Store) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[name]
	return ok
}

// Keys returns the names of all persisted metafiles, sorted — the
// deterministic candidate list fault plans pick damage targets from.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.blocks))
	for k := range s.blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Corrupt flips a byte in the named metafile and a byte of the containing
// block's parity chunk, simulating media damage that RAID cannot
// reconstruct; used to exercise the repair/fallback path. The offset must
// lie within the metafile.
func (s *Store) Corrupt(name string, offset int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.blocks[name]
	if !ok {
		return fmt.Errorf("topaa: no metafile for %q", name)
	}
	if offset < 0 || offset >= len(m.data) {
		return fmt.Errorf("topaa: corrupt offset %d out of range [0,%d) for %q", offset, len(m.data), name)
	}
	m.data[offset] ^= 0xa5
	m.prot[offset/block.BlockSize].parity[offset%block.ChunkSize] ^= 0xa5
	return nil
}

// Drop removes the named metafile (e.g. a fresh file system that has never
// completed a CP).
func (s *Store) Drop(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blocks, name)
}

// Stats reports lifetime I/O to the store.
func (s *Store) Stats() (reads, writes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads, s.writes
}

// Recovery reports lifetime failure and recovery events.
func (s *Store) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// The Store is the faultinject.DamageSurface fault plans damage.
var _ faultinject.DamageSurface = (*Store)(nil)

func (s *Store) chunkTarget(name string, blk, chunk int) (*metafile, error) {
	m, ok := s.blocks[name]
	if !ok {
		return nil, fmt.Errorf("topaa: no metafile for %q", name)
	}
	if blk < 0 || blk >= m.nblocks() {
		return nil, fmt.Errorf("topaa: block %d out of range [0,%d) for %q", blk, m.nblocks(), name)
	}
	if chunk < 0 || chunk >= block.ChunksPerBlock {
		return nil, fmt.Errorf("topaa: chunk %d out of range [0,%d)", chunk, block.ChunksPerBlock)
	}
	return m, nil
}

// BlockCount implements faultinject.DamageSurface.
func (s *Store) BlockCount(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.blocks[name]
	if !ok {
		return 0
	}
	return m.nblocks()
}

// CorruptChunk implements faultinject.DamageSurface: it flips one byte in
// a single data chunk, leaving parity intact so the load path can
// reconstruct it.
func (s *Store) CorruptChunk(name string, blk, chunk int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.chunkTarget(name, blk, chunk)
	if err != nil {
		return err
	}
	m.data[blk*block.BlockSize+chunk*block.ChunkSize] ^= 0xa5
	return nil
}

// MarkChunkUnreadable implements faultinject.DamageSurface.
func (s *Store) MarkChunkUnreadable(name string, blk, chunk int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.chunkTarget(name, blk, chunk)
	if err != nil {
		return err
	}
	m.prot[blk].unreadable[chunk] = true
	return nil
}

// MarkParityUnreadable implements faultinject.DamageSurface.
func (s *Store) MarkParityUnreadable(name string, blk int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.chunkTarget(name, blk, 0)
	if err != nil {
		return err
	}
	m.prot[blk].parityUnreadable = true
	return nil
}
