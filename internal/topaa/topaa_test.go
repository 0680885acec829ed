package topaa

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/faultinject"
	"waflfs/internal/hbps"
	"waflfs/internal/heapcache"
)

func fullCache(n int, seed int64) *heapcache.Cache {
	rng := rand.New(rand.NewSource(seed))
	scores := make([]uint64, n)
	for i := range scores {
		scores[i] = uint64(rng.Intn(57345))
	}
	return heapcache.NewFromScores(scores)
}

func mustMarshal(t *testing.T, entries []heapcache.Entry) []byte {
	t.Helper()
	buf, err := MarshalRAIDAware(entries)
	if err != nil {
		t.Fatalf("MarshalRAIDAware: %v", err)
	}
	return buf
}

func TestRAIDAwareRoundTrip(t *testing.T) {
	c := fullCache(10000, 1)
	top := c.TopK(RAIDAwareEntries)
	buf := mustMarshal(t, top)
	if len(buf) != block.BlockSize {
		t.Fatalf("block size = %d", len(buf))
	}
	got, err := LoadRAIDAware(buf, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != RAIDAwareEntries {
		t.Fatalf("entries = %d", len(got))
	}
	for i := range top {
		if got[i] != top[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], top[i])
		}
	}
}

func TestRAIDAwarePartialBlock(t *testing.T) {
	// Fewer AAs than 512: block is partially filled.
	c := fullCache(17, 2)
	buf := mustMarshal(t, c.TopK(RAIDAwareEntries))
	got, err := LoadRAIDAware(buf, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 17 {
		t.Fatalf("entries = %d", len(got))
	}
	// Empty marshal loads as empty.
	got, err = LoadRAIDAware(mustMarshal(t, nil), 17)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: %v %v", got, err)
	}
}

func TestRAIDAwareOverlongTruncates(t *testing.T) {
	entries := make([]heapcache.Entry, 600)
	for i := range entries {
		entries[i] = heapcache.Entry{ID: aa.ID(i), Score: uint64(1000 - i)}
	}
	got, err := LoadRAIDAware(mustMarshal(t, entries), 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != RAIDAwareEntries {
		t.Fatalf("entries = %d", len(got))
	}
}

// MarshalRAIDAware must reject entries that do not fit the 32-bit on-disk
// fields instead of panicking — a large-AA config must degrade, not crash
// the CP.
func TestRAIDAwareMarshalUnencodable(t *testing.T) {
	if _, err := MarshalRAIDAware([]heapcache.Entry{{ID: 0, Score: 1 << 33}}); err == nil {
		t.Error("oversized score accepted")
	}
	if _, err := MarshalRAIDAware([]heapcache.Entry{{ID: aa.ID(^uint32(0)), Score: 1}}); err == nil {
		t.Error("invalid-sentinel ID accepted")
	}
}

func TestRAIDAwareLoadRejectsCorruption(t *testing.T) {
	c := fullCache(10000, 3)
	good := mustMarshal(t, c.TopK(RAIDAwareEntries))

	// Wrong size.
	if _, err := LoadRAIDAware(good[:100], 10000); err == nil {
		t.Error("short block accepted")
	}
	// Ascending scores (corrupt order).
	bad := append([]byte(nil), good...)
	copy(bad[4:8], []byte{0, 0, 0, 0}) // first score -> 0, below second
	if _, err := LoadRAIDAware(bad, 10000); err == nil {
		t.Error("non-descending scores accepted")
	}
	// Duplicate IDs.
	bad = append([]byte(nil), good...)
	copy(bad[8:12], bad[0:4])
	if _, err := LoadRAIDAware(bad, 10000); err == nil {
		t.Error("duplicate id accepted")
	}
	// Entry after terminator.
	short := mustMarshal(t, c.TopK(5))
	bad = append([]byte(nil), short...)
	copy(bad[8*7:8*7+8], good[:8]) // resurrect slot 7 after slot 5 ended
	if _, err := LoadRAIDAware(bad, 10000); err == nil {
		t.Error("entry after terminator accepted")
	}
	// An AA the group does not have.
	top := c.TopK(RAIDAwareEntries)
	maxID := aa.ID(0)
	for _, e := range top {
		maxID = max(maxID, e.ID)
	}
	if _, err := LoadRAIDAware(good, int(maxID)); err == nil {
		t.Error("AA at the group's AA count accepted")
	}
	if _, err := LoadRAIDAware(good, int(maxID)+1); err != nil {
		t.Errorf("exact AA count rejected: %v", err)
	}
}

// The store's bounded load holds ids to the group and counts a block naming
// another AA as damage; a reload decodes into the metafile's scratch, and the
// duplicate check's bits are clear again after a rejected block.
func TestStoreRAIDAwareBounded(t *testing.T) {
	s := NewStore()
	c := fullCache(1024, 17)
	if err := s.SaveRAIDAware("rg0", c); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadRAIDAwareBounded("rg0", 100); !errors.Is(err, ErrDamaged) {
		t.Fatalf("ids past the bound: %v", err)
	}
	if rec := s.Recovery(); rec.DamagedLoads != 1 {
		t.Fatalf("DamagedLoads = %d, want 1", rec.DamagedLoads)
	}
	want := c.TopK(RAIDAwareEntries)
	got, outcome, err := s.LoadRAIDAwareBounded("rg0", 1024)
	if err != nil || outcome != LoadClean || !slices.Equal(got, want) {
		t.Fatalf("bounded load: %v, %v, equal %v", outcome, err, slices.Equal(got, want))
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, _, err := s.LoadRAIDAwareBounded("rg0", 1024); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a reload allocates %.0f times, want 0", n)
	}
	// A block with a duplicate, then the intact one, through one decoder: the
	// second decode must not see the first one's marks.
	good := mustMarshal(t, want)
	dup := append([]byte(nil), good...)
	copy(dup[8*300:8*300+4], dup[8*2:8*2+4])
	var d raidDecoder
	if _, err := d.decode(dup, 1024); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if got, err := d.decode(good, 1024); err != nil || !slices.Equal(got, want) {
		t.Fatalf("decode after a rejected duplicate: %v", err)
	}
}

func TestStoreRAIDAware(t *testing.T) {
	s := NewStore()
	c := fullCache(5000, 4)
	if s.Has("rg0") {
		t.Fatal("fresh store has rg0")
	}
	if err := s.SaveRAIDAware("rg0", c); err != nil {
		t.Fatal(err)
	}
	if !s.Has("rg0") {
		t.Fatal("save did not persist")
	}
	seed, outcome, err := s.LoadRAIDAware("rg0")
	if err != nil {
		t.Fatal(err)
	}
	if outcome != LoadClean {
		t.Fatalf("outcome = %v", outcome)
	}
	if len(seed) != RAIDAwareEntries {
		t.Fatalf("seed = %d", len(seed))
	}
	best, _ := c.Best()
	if seed[0].ID != best.ID || seed[0].Score != best.Score {
		t.Fatalf("seed[0] = %+v, cache best %+v", seed[0], best)
	}
	r, w := s.Stats()
	if r != 1 || w != 1 {
		t.Fatalf("stats = %d,%d", r, w)
	}
	if _, _, err := s.LoadRAIDAware("missing"); !errors.Is(err, ErrMissing) {
		t.Fatalf("missing metafile: %v", err)
	}
}

// The probe that discovers a missing metafile is a real I/O; the Fig. 10
// mount accounting must charge it.
func TestStoreChargesFailedProbes(t *testing.T) {
	s := NewStore()
	if _, _, err := s.LoadRAIDAware("nope"); !errors.Is(err, ErrMissing) {
		t.Fatalf("want ErrMissing, got %v", err)
	}
	if r, _ := s.Stats(); r != 1 {
		t.Fatalf("failed RAID-aware probe charged %d reads, want 1", r)
	}
	if _, _, err := s.LoadAgnostic("nope"); !errors.Is(err, ErrMissing) {
		t.Fatalf("want ErrMissing, got %v", err)
	}
	if r, _ := s.Stats(); r != 2 {
		t.Fatalf("failed agnostic probe charged %d total reads, want 2", r)
	}
}

func TestStoreAgnostic(t *testing.T) {
	s := NewStore()
	h := hbps.New(hbps.DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		h.Track(aa.ID(i), uint32(rng.Intn(32769)))
	}
	s.SaveAgnostic("vol1", h)
	got, outcome, err := s.LoadAgnostic("vol1")
	if err != nil {
		t.Fatal(err)
	}
	if outcome != LoadClean {
		t.Fatalf("outcome = %v", outcome)
	}
	if got.Total() != h.Total() || got.ListLen() != h.ListLen() {
		t.Fatal("agnostic round trip mismatch")
	}
	// Two blocks written (histogram + list), two read.
	r, w := s.Stats()
	if w != 2 || r != 2 {
		t.Fatalf("stats = %d,%d", r, w)
	}

	// Into a structure that already exists: the same pages, the same reads.
	into := hbps.New(hbps.DefaultConfig())
	into.Track(7, 100)
	if outcome, err := s.LoadAgnosticInto("vol1", into, 3000); err != nil || outcome != LoadClean {
		t.Fatalf("LoadAgnosticInto: %v, %v", outcome, err)
	}
	if !bytes.Equal(into.Marshal(), h.Marshal()) {
		t.Fatal("LoadAgnosticInto differs from the saved structure")
	}
	if r, _ := s.Stats(); r != 4 {
		t.Fatalf("reads = %d, want 4", r)
	}
	// Bounds and geometry are the space's: both are damage.
	if _, err := s.LoadAgnosticInto("vol1", into, 2999); !errors.Is(err, ErrDamaged) {
		t.Fatalf("more tracked than the bound: %v", err)
	}
	other := hbps.New(hbps.Config{MaxScore: 1024, BinWidth: 32, ListCap: hbps.DefaultListCap})
	if _, err := s.LoadAgnosticInto("vol1", other, 3000); !errors.Is(err, ErrDamaged) || other.Total() != 0 {
		t.Fatalf("another geometry: %v, %d tracked", err, other.Total())
	}
	if rec := s.Recovery(); rec.DamagedLoads != 2 {
		t.Fatalf("DamagedLoads = %d, want 2", rec.DamagedLoads)
	}
}

func TestStoreCorruptionFallback(t *testing.T) {
	s := NewStore()
	h := hbps.New(hbps.DefaultConfig())
	for i := 0; i < 100; i++ {
		h.Track(aa.ID(i), 32768)
	}
	s.SaveAgnostic("vol1", h)
	if err := s.Corrupt("vol1", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadAgnostic("vol1"); !errors.Is(err, ErrDamaged) {
		t.Fatalf("corrupt HBPS pages: %v", err)
	}
	// RAID-aware corruption likewise surfaces as an error, not a panic.
	c := fullCache(1000, 6)
	if err := s.SaveRAIDAware("rg0", c); err != nil {
		t.Fatal(err)
	}
	// Flip a score byte high in the list to break descending order.
	if err := s.Corrupt("rg0", 8*100+4+3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadRAIDAware("rg0"); !errors.Is(err, ErrDamaged) {
		t.Fatalf("corrupt RAID-aware block: %v", err)
	}
	if err := s.Corrupt("missing", 0); err == nil {
		t.Fatal("corrupting missing metafile succeeded")
	}
	rec := s.Recovery()
	if rec.DamagedLoads != 2 {
		t.Fatalf("DamagedLoads = %d, want 2", rec.DamagedLoads)
	}
}

// Corrupt must reject out-of-range offsets with an error, not an
// index-out-of-range panic.
func TestStoreCorruptValidatesOffset(t *testing.T) {
	s := NewStore()
	if err := s.SaveRAIDAware("rg0", fullCache(100, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt("rg0", -1); err == nil {
		t.Error("negative offset accepted")
	}
	if err := s.Corrupt("rg0", block.BlockSize); err == nil {
		t.Error("offset one past the end accepted")
	}
	if err := s.Corrupt("rg0", block.BlockSize-1); err != nil {
		t.Errorf("last valid offset rejected: %v", err)
	}
}

// A single rotted chunk is rebuilt from the XOR parity chunk and repaired
// in place; two rotted chunks in one block exceed what parity can rebuild.
func TestStoreReconstructsSingleChunk(t *testing.T) {
	s := NewStore()
	c := fullCache(5000, 10)
	if err := s.SaveRAIDAware("rg0", c); err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptChunk("rg0", 0, 3); err != nil {
		t.Fatal(err)
	}
	seed, outcome, err := s.LoadRAIDAware("rg0")
	if err != nil {
		t.Fatal(err)
	}
	if outcome != LoadReconstructed {
		t.Fatalf("outcome = %v, want reconstructed", outcome)
	}
	best, _ := c.Best()
	if seed[0].ID != best.ID {
		t.Fatal("reconstructed seed does not match cache")
	}
	if rec := s.Recovery(); rec.Reconstructions != 1 {
		t.Fatalf("Reconstructions = %d", rec.Reconstructions)
	}
	// The repair was written back: the next load is clean.
	if _, outcome, err = s.LoadRAIDAware("rg0"); err != nil || outcome != LoadClean {
		t.Fatalf("post-repair load: %v, %v", outcome, err)
	}

	// Two bad chunks in the same block cannot be rebuilt.
	if err := s.CorruptChunk("rg0", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptChunk("rg0", 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadRAIDAware("rg0"); !errors.Is(err, ErrDamaged) {
		t.Fatalf("double rot: %v", err)
	}
}

// An unreadable chunk reconstructs like rot; losing the parity chunk too
// defeats reconstruction.
func TestStoreUnreadableChunks(t *testing.T) {
	s := NewStore()
	if err := s.SaveRAIDAware("rg0", fullCache(5000, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkChunkUnreadable("rg0", 0, 7); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := s.LoadRAIDAware("rg0"); err != nil || outcome != LoadReconstructed {
		t.Fatalf("unreadable chunk: %v, %v", outcome, err)
	}

	if err := s.MarkChunkUnreadable("rg0", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkParityUnreadable("rg0", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadRAIDAware("rg0"); !errors.Is(err, ErrDamaged) {
		t.Fatalf("chunk+parity loss: %v", err)
	}

	// Damage-surface calls validate their coordinates.
	if err := s.CorruptChunk("rg0", 5, 0); err == nil {
		t.Error("out-of-range block accepted")
	}
	if err := s.CorruptChunk("rg0", 0, 99); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	if err := s.MarkParityUnreadable("ghost", 0); err == nil {
		t.Error("missing metafile accepted")
	}
}

// A save issued by an older CP generation is detected as stale; a torn
// save (mixed generations) is detected as torn.
func TestStoreGenerations(t *testing.T) {
	s := NewStore()
	if err := s.SaveRAIDAware("rg0", fullCache(1000, 12)); err != nil {
		t.Fatal(err)
	}
	s.BeginGeneration()
	if _, _, err := s.LoadRAIDAware("rg0"); !errors.Is(err, ErrStale) {
		t.Fatalf("stale metafile: %v", err)
	}
	// Re-saving at the current generation clears the staleness.
	if err := s.SaveRAIDAware("rg0", fullCache(1000, 12)); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := s.LoadRAIDAware("rg0"); err != nil || outcome != LoadClean {
		t.Fatalf("re-saved: %v, %v", outcome, err)
	}
	rec := s.Recovery()
	if rec.StaleLoads != 1 {
		t.Fatalf("StaleLoads = %d", rec.StaleLoads)
	}
}

// A torn save lands only its first chunks; the load detects the mixed
// generations and rejects the metafile.
func TestStoreTornWrite(t *testing.T) {
	s := NewStore()
	inj := faultinject.New(faultinject.Plan{
		Seed: 1, CrashPhase: faultinject.PhaseTopAAGroups, CrashCP: 1, Fault: faultinject.FaultTorn,
	})
	s.SetInjector(inj)
	inj.BeginCP()

	// Pre-crash: saves land whole.
	s.BeginGeneration()
	if err := s.SaveRAIDAware("rg0", fullCache(1000, 13)); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := s.LoadRAIDAware("rg0"); err != nil || outcome != LoadClean {
		t.Fatalf("pre-crash: %v, %v", outcome, err)
	}

	// Crash, then the next CP's save tears.
	inj.EnterPhase(faultinject.PhaseTopAAGroups)
	s.BeginGeneration()
	if err := s.SaveRAIDAware("rg0", fullCache(1000, 14)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadRAIDAware("rg0"); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn save: %v", err)
	}
	// Subsequent saves are dropped entirely: the old image stays, stale.
	if err := s.SaveRAIDAware("rg1", fullCache(1000, 15)); err != nil {
		t.Fatal(err)
	}
	if s.Has("rg1") {
		t.Fatal("dropped save persisted")
	}
	if rec := s.Recovery(); rec.TornLoads != 1 {
		t.Fatalf("TornLoads = %d", rec.TornLoads)
	}
}

func TestStoreKeys(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"vb", "rg1", "rg0"} {
		if err := s.SaveRAIDAware(k, fullCache(10, 16)); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "rg0" || keys[1] != "rg1" || keys[2] != "vb" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestStoreDrop(t *testing.T) {
	s := NewStore()
	if err := s.SaveRAIDAware("rg0", fullCache(10, 7)); err != nil {
		t.Fatal(err)
	}
	s.Drop("rg0")
	if s.Has("rg0") {
		t.Fatal("drop did not remove")
	}
}

// Seeding workflow: a heap seeded from the TopAA block serves Best() with
// exactly the pre-crash best AAs while the rest are inserted in background.
func TestSeedThenBackgroundFill(t *testing.T) {
	full := fullCache(100000, 8)
	s := NewStore()
	if err := s.SaveRAIDAware("rg0", full); err != nil {
		t.Fatal(err)
	}

	seedEntries, _, err := s.LoadRAIDAware("rg0")
	if err != nil {
		t.Fatal(err)
	}
	seeded := heapcache.New(100000)
	for _, e := range seedEntries {
		seeded.Insert(e.ID, e.Score)
	}
	fullBest, _ := full.Best()
	seedBest, _ := seeded.Best()
	if fullBest.Score != seedBest.Score {
		t.Fatalf("seeded best %d != full best %d", seedBest.Score, fullBest.Score)
	}
	// Background fill: insert everything else; heap converges to the full
	// cache's content.
	for id := 0; id < 100000; id++ {
		if !seeded.Tracked(aa.ID(id)) {
			seeded.Insert(aa.ID(id), full.Score(aa.ID(id)))
		}
	}
	if seeded.Len() != full.Len() {
		t.Fatalf("len %d != %d", seeded.Len(), full.Len())
	}
	if err := seeded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
