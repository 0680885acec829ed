package hbps

import (
	"testing"

	"waflfs/internal/aa"
)

// FuzzOperations drives the HBPS with an arbitrary operation tape against a
// naive model, asserting the structural invariants and histogram accuracy
// after every step. The seed corpus covers each opcode; `go test` runs the
// corpus, and `go test -fuzz FuzzOperations` explores further.
func FuzzOperations(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 2, 0, 3, 0, 0, 63, 4})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 3, 3, 3, 3, 2, 1, 2, 2})
	f.Add([]byte{0, 63, 1, 62, 4, 0, 1, 2, 63})
	f.Fuzz(func(t *testing.T, tape []byte) {
		h := New(Config{MaxScore: 64, BinWidth: 8, ListCap: 6})
		model := map[aa.ID]uint32{}
		nextID := aa.ID(0)
		pos := 0
		next := func() byte {
			if pos >= len(tape) {
				return 0
			}
			b := tape[pos]
			pos++
			return b
		}
		for pos < len(tape) {
			switch next() % 5 {
			case 0: // track
				s := uint32(next()) % 65
				h.Track(nextID, s)
				model[nextID] = s
				nextID++
			case 1: // update the lowest tracked id
				for id := aa.ID(0); id < nextID; id++ {
					if old, ok := model[id]; ok {
						ns := uint32(next()) % 65
						h.Update(id, old, ns)
						model[id] = ns
						break
					}
				}
			case 2: // untrack the lowest tracked id
				for id := aa.ID(0); id < nextID; id++ {
					if old, ok := model[id]; ok {
						h.Untrack(id, old)
						delete(model, id)
						break
					}
				}
			case 3: // pop
				if id, ok := h.PopBest(); ok {
					if _, tracked := model[id]; !tracked {
						t.Fatalf("popped untracked id %d", id)
					}
				}
			case 4: // replenish
				h.Replenish(func(yield func(aa.ID, uint32)) {
					for id, s := range model {
						yield(id, s)
					}
				})
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			if h.Total() != uint64(len(model)) {
				t.Fatalf("total %d != model %d", h.Total(), len(model))
			}
		}
		// Histogram counts must match the model's census exactly.
		census := make([]uint32, h.NumBins())
		for _, s := range model {
			census[h.Bin(s)]++
		}
		for b := range census {
			if h.BinCount(b) != census[b] {
				t.Fatalf("bin %d: %d != %d", b, h.BinCount(b), census[b])
			}
		}
		// Serialization survives arbitrary states.
		got, err := Load(h.Marshal())
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if got.Total() != h.Total() || got.ListLen() != h.ListLen() {
			t.Fatal("round trip state mismatch")
		}
	})
}

// FuzzLoad asserts that arbitrary bytes never panic the page decoder: they
// either load cleanly or return an error (the mount fallback path).
func FuzzLoad(f *testing.F) {
	h := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		h.Track(aa.ID(i), uint32(i*327)%32769)
	}
	good := h.Marshal()
	f.Add(good)
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	f.Add(bad)
	f.Add(make([]byte, 2*PageSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(data)
		if err == nil {
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("accepted pages violate invariants: %v", err)
			}
		}
	})
}
