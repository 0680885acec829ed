package topaa

import (
	"encoding/binary"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/hbps"
)

// FuzzLoadRAIDAware asserts the RAID-aware decoder never panics: arbitrary
// bytes either error or decode to densely packed, descending, duplicate-free
// entries — the properties mount relies on before seeding the heap.
func FuzzLoadRAIDAware(f *testing.F) {
	good, err := MarshalRAIDAware(fullCache(300, 20).TopK(RAIDAwareEntries))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	empty, _ := MarshalRAIDAware(nil)
	f.Add(empty)
	f.Add([]byte{})
	f.Add(make([]byte, block.BlockSize))
	f.Add(make([]byte, block.BlockSize-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := LoadRAIDAware(data)
		if err != nil {
			return
		}
		seen := make(map[aa.ID]bool, len(entries))
		for i, e := range entries {
			if seen[e.ID] {
				t.Fatalf("decoded duplicate AA %d", e.ID)
			}
			seen[e.ID] = true
			if e.Score > uint64(^uint32(0)) {
				t.Fatalf("decoded score %d exceeds uint32", e.Score)
			}
			if i > 0 && entries[i-1].Score < e.Score {
				t.Fatalf("decoded scores not descending at %d", i)
			}
		}
	})
}

// FuzzLoadAgnostic asserts the RAID-agnostic (HBPS page) decoder never
// panics and only yields structures whose invariants hold, listing each id
// once and none the decoder's bound excludes — a listed id indexes an array,
// so a page must not be able to name one the loader will not index.
func FuzzLoadAgnostic(f *testing.F) {
	h := hbps.New(hbps.DefaultConfig())
	for i := 0; i < 500; i++ {
		h.Track(aa.ID(i), uint32(i%32769))
	}
	good := h.Marshal()
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 2*hbps.PageSize))
	// The list page starts the second page, four bytes an id.
	outOfRange := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(outOfRange[hbps.PageSize:], ^uint32(0))
	f.Add(outOfRange)
	duplicate := append([]byte(nil), good...)
	copy(duplicate[hbps.PageSize+4:hbps.PageSize+8], duplicate[hbps.PageSize:])
	f.Add(duplicate)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := hbps.Load(data)
		if err != nil {
			return
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("decoded HBPS violates invariants: %v", err)
		}
		seen := make(map[aa.ID]bool, got.ListLen())
		got.EachListed(func(id aa.ID, _ int) {
			if id >= hbps.MaxLoadItems || seen[id] {
				t.Fatalf("decoded list holds id %d (out of bound, or twice)", id)
			}
			seen[id] = true
		})
	})
}
