package hbps

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"waflfs/internal/aa"
)

func populated(seed int64, n int) (*HBPS, map[aa.ID]uint32) {
	rng := rand.New(rand.NewSource(seed))
	h := New(DefaultConfig())
	scores := map[aa.ID]uint32{}
	for i := 0; i < n; i++ {
		s := uint32(rng.Intn(32769))
		scores[aa.ID(i)] = s
		h.Track(aa.ID(i), s)
	}
	return h, scores
}

func TestMarshaledSize(t *testing.T) {
	cfg := DefaultConfig()
	// Default: one histogram page + one list page = exactly two 4KiB
	// blocks, the paper's memory bound.
	if cfg.ListPages() != 1 {
		t.Fatalf("list pages = %d", cfg.ListPages())
	}
	if cfg.MarshaledSize() != 2*PageSize {
		t.Fatalf("size = %d", cfg.MarshaledSize())
	}
	big := Config{MaxScore: 32768, BinWidth: 1024, ListCap: 3000}
	if big.ListPages() != 3 || big.MarshaledSize() != 4*PageSize {
		t.Fatalf("big: pages=%d size=%d", big.ListPages(), big.MarshaledSize())
	}
}

func TestRoundTripEmpty(t *testing.T) {
	h := New(DefaultConfig())
	got, err := Load(h.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != 0 || got.ListLen() != 0 {
		t.Fatal("empty round trip not empty")
	}
}

func TestRoundTripPopulated(t *testing.T) {
	h, scores := populated(3, 5000)
	// Churn a little so listed/counts diverge.
	for i := 0; i < 500; i++ {
		id := aa.ID(i)
		h.Update(id, scores[id], scores[id]/2)
		scores[id] /= 2
	}
	for i := 0; i < 100; i++ {
		h.PopBest()
	}
	data := h.Marshal()
	got, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got.Total() != h.Total() || got.ListLen() != h.ListLen() {
		t.Fatalf("total %d/%d list %d/%d", got.Total(), h.Total(), got.ListLen(), h.ListLen())
	}
	for b := 0; b < h.NumBins(); b++ {
		if got.BinCount(b) != h.BinCount(b) || got.BinListed(b) != h.BinListed(b) {
			t.Fatalf("bin %d mismatch", b)
		}
	}
	// Serialization is deterministic: marshal(load(marshal(x))) == marshal(x).
	if !bytes.Equal(got.Marshal(), data) {
		t.Fatal("re-marshal differs")
	}
	// Behavioural equivalence: both pop the same sequence.
	for i := 0; i < 50; i++ {
		a, aok := h.PopBest()
		b, bok := got.PopBest()
		if a != b || aok != bok {
			t.Fatalf("pop %d: %d,%v vs %d,%v", i, a, aok, b, bok)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	h, _ := populated(4, 2000)
	good := h.Marshal()

	corrupt := func(mutate func([]byte)) error {
		buf := append([]byte(nil), good...)
		mutate(buf)
		_, err := Load(buf)
		return err
	}

	cases := map[string]func([]byte){
		"magic":           func(b []byte) { b[0] ^= 0xff },
		"version":         func(b []byte) { b[offVersion] = 99 },
		"bin count zero":  func(b []byte) { b[offBinCount] = 0; b[offBinCount+1] = 0 },
		"geometry":        func(b []byte) { b[offBinWidth] ^= 0x01 },
		"list len > cap":  func(b []byte) { b[offListLen] = 0xff; b[offListLen+1] = 0xff },
		"broken index":    func(b []byte) { b[offBins+8] ^= 0x3f },
		"count underflow": func(b []byte) { b[offBins] = 0; b[offBins+1] = 0; b[offBins+2] = 0; b[offBins+3] = 0 },
	}
	for name, m := range cases {
		if err := corrupt(m); err == nil {
			t.Errorf("%s corruption not detected", name)
		}
	}
	if _, err := Load(good[:PageSize]); err == nil {
		t.Error("truncated buffer accepted")
	}
	// The pristine buffer still loads.
	if _, err := Load(good); err != nil {
		t.Fatalf("pristine buffer rejected: %v", err)
	}
}

func TestLoadDetectsDuplicateListEntries(t *testing.T) {
	h := New(DefaultConfig())
	h.Track(1, 32768)
	h.Track(2, 32768)
	buf := h.Marshal()
	// Make both list entries the same ID.
	copy(buf[PageSize+4:PageSize+8], buf[PageSize:PageSize+4])
	if _, err := Load(buf); err == nil {
		t.Fatal("duplicate list entries accepted")
	}
}

// A listed id becomes an index into the position array, so the decoder must
// turn away one it was not told to expect before sizing anything by it, and
// in the error class a damaged page has always had.
func TestLoadBoundedRejectsForeignIDs(t *testing.T) {
	h, _ := populated(7, 2000)
	good := h.Marshal()
	top := aa.ID(0)
	h.EachListed(func(id aa.ID, _ int) { top = max(top, id) })

	if _, err := LoadBounded(good, 2000); err != nil {
		t.Fatalf("exact bound rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		items  int
		mutate func([]byte)
	}{
		"listed id at the bound":     {int(top), func([]byte) {}},
		"more tracked than exist":    {1999, func([]byte) {}},
		"listed id of all ones":      {2000, func(b []byte) { binary.LittleEndian.PutUint32(b[PageSize:], ^uint32(0)) }},
		"plain Load, id of all ones": {MaxLoadItems, func(b []byte) { binary.LittleEndian.PutUint32(b[PageSize:], ^uint32(0)) }},
		"plain Load, id at ceiling":  {MaxLoadItems, func(b []byte) { binary.LittleEndian.PutUint32(b[PageSize:], MaxLoadItems) }},
	} {
		buf := append([]byte(nil), good...)
		tc.mutate(buf)
		_, err := LoadBounded(buf, tc.items)
		if err == nil || !strings.Contains(err.Error(), "corrupt pages") {
			t.Errorf("%s: err = %v, want a corrupt-pages error", name, err)
		}
	}
}

// LoadFrom reloads a structure in place, as a seeded remount does: the
// result reads exactly as LoadBounded's does, metrics included, and a steady
// reload allocates nothing. Pages of another geometry leave the structure
// untouched; pages that fail later leave it for a Replenish, which rebuilds
// it whole.
func TestLoadFromReusesStorage(t *testing.T) {
	src, _ := populated(9, 3000)
	for i := 0; i < 200; i++ {
		src.PopBest()
	}
	data := src.Marshal()
	want, err := LoadBounded(data, 3000)
	if err != nil {
		t.Fatal(err)
	}
	h, scores := populated(10, 2500)
	for i := 0; i < 300; i++ {
		h.PopBest()
	}
	if err := h.LoadFrom(data, 3000); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h.Marshal(), data) || h.Metrics() != want.Metrics() {
		t.Fatalf("in-place load differs from LoadBounded: metrics %+v, want %+v", h.Metrics(), want.Metrics())
	}
	for i := 0; i < 50; i++ {
		a, aok := h.PopBest()
		b, bok := want.PopBest()
		if a != b || aok != bok {
			t.Fatalf("pop %d: %d,%v vs %d,%v", i, a, aok, b, bok)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := h.LoadFrom(data, 3000); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("LoadFrom allocates %.0f times, want 0", n)
	}

	other := New(Config{MaxScore: 1024, BinWidth: 32, ListCap: DefaultListCap})
	other.Track(0, 1024)
	before := other.Marshal()
	if err := other.LoadFrom(data, 3000); err == nil {
		t.Fatal("pages of another geometry loaded")
	}
	if !bytes.Equal(other.Marshal(), before) || other.Metrics().Tracks != 1 {
		t.Fatal("a rejected geometry touched the structure")
	}

	dup := append([]byte(nil), data...)
	copy(dup[PageSize+40:PageSize+44], dup[PageSize:PageSize+4])
	if err := h.LoadFrom(dup, 3000); err == nil {
		t.Fatal("duplicate list entries loaded")
	}
	fresh := New(DefaultConfig())
	for id := 0; id < 2500; id++ {
		fresh.Track(aa.ID(id), scores[aa.ID(id)])
	}
	for _, x := range []*HBPS{h, fresh} {
		x.Replenish(func(yield func(aa.ID, uint32)) {
			for id := 0; id < 2500; id++ {
				yield(aa.ID(id), scores[aa.ID(id)])
			}
		})
		if err := x.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(h.Marshal(), fresh.Marshal()) {
		t.Fatal("Replenish after a failed load does not rebuild the structure")
	}
}

// MarshalTo must leave a reused buffer exactly as Marshal leaves a new one:
// the TopAA store marshals every save into one scratch image.
func TestMarshalToRewritesEveryByte(t *testing.T) {
	h, _ := populated(8, 3000)
	buf := bytes.Repeat([]byte{0xa5}, h.Config().MarshaledSize())
	h.MarshalTo(buf)
	if !bytes.Equal(buf, h.Marshal()) {
		t.Fatal("MarshalTo over a dirty buffer differs from Marshal")
	}
	for h.ListLen() > 10 { // a shorter list must not leave the old tail behind
		h.PopBest()
	}
	h.MarshalTo(buf)
	if !bytes.Equal(buf, h.Marshal()) {
		t.Fatal("MarshalTo left stale list entries behind")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MarshalTo accepted a buffer of the wrong size")
		}
	}()
	h.MarshalTo(buf[:PageSize])
}

func BenchmarkMarshal(b *testing.B) {
	h, _ := populated(5, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Marshal()
	}
}

func BenchmarkLoad(b *testing.B) {
	h, _ := populated(6, 100000)
	data := h.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(data); err != nil {
			b.Fatal(err)
		}
	}
}
