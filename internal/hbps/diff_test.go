package hbps

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"waflfs/internal/aa"
)

// runOpsAgainstReference drives an HBPS and the map-indexed reference
// (ref_test.go) with the operation tape and fails on the first step after
// which they differ in anything a caller can observe: the list with the bin
// each id is filed under, the histogram, the item count, the operation
// counters the registry exports, or the marshalled pages. Pop order breaks
// score ties by list position, so "the same list" is the allocator making
// the same picks.
func runOpsAgainstReference(t *testing.T, tape []byte) {
	cfg := Config{MaxScore: 64, BinWidth: 8, ListCap: 6}
	h, r := New(cfg), newRef(cfg)
	scores := map[aa.ID]uint32{}
	var tracked []aa.ID // insertion order; the tape indexes into it
	nextID := aa.ID(0)
	pos := 0
	next := func() int {
		if pos >= len(tape) {
			return 0
		}
		b := tape[pos]
		pos++
		return int(b)
	}
	enumerate := func(yield func(aa.ID, uint32)) {
		ids := make([]aa.ID, 0, len(scores))
		for id := range scores {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			yield(id, scores[id])
		}
	}
	type filed struct {
		id  aa.ID
		bin int
	}
	for step := 0; pos < len(tape); step++ {
		op := next() % 6
		switch op {
		case 0: // track; ids are sparse so the position index has to grow
			nextID += aa.ID(1 + next()%5)
			s := uint32(next() % 65)
			h.Track(nextID, s)
			r.Track(nextID, s)
			scores[nextID] = s
			tracked = append(tracked, nextID)
		case 1, 2:
			if len(tracked) == 0 {
				continue
			}
			i := next() % len(tracked)
			id := tracked[i]
			if op == 1 {
				s := uint32(next() % 65)
				h.Update(id, scores[id], s)
				r.Update(id, scores[id], s)
				scores[id] = s
			} else {
				h.Untrack(id, scores[id])
				r.Untrack(id, scores[id])
				delete(scores, id)
				tracked = slices.Delete(tracked, i, i+1)
			}
		case 3:
			gid, gok := h.PopBest()
			wid, wok := r.PopBest()
			if gid != wid || gok != wok {
				t.Fatalf("step %d: PopBest = %d,%v, reference %d,%v", step, gid, gok, wid, wok)
			}
		case 4:
			h.Replenish(enumerate)
			r.Replenish(enumerate)
		case 5: // a mount: both come back from their pages
			var err error
			if h, err = LoadBounded(h.Marshal(), int(nextID)+1); err != nil {
				t.Fatalf("step %d: load: %v", step, err)
			}
			if r, err = loadRef(r.Marshal()); err != nil {
				t.Fatalf("step %d: reference load: %v", step, err)
			}
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
		var got, want []filed
		h.EachListed(func(id aa.ID, bin int) { got = append(got, filed{id, bin}) })
		r.EachListed(func(id aa.ID, bin int) { want = append(want, filed{id, bin}) })
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (op %d): list %v, reference %v", step, op, got, want)
		}
		for _, f := range got {
			if !h.Listed(f.id) {
				t.Fatalf("step %d (op %d): listed id %d not indexed", step, op, f.id)
			}
		}
		if !slices.Equal(h.BinSnapshot(), r.counts) {
			t.Fatalf("step %d (op %d): histogram %v, reference %v", step, op, h.BinSnapshot(), r.counts)
		}
		if h.Total() != r.total || h.Metrics() != r.m {
			t.Fatalf("step %d (op %d): total %d metrics %+v, reference %d %+v", step, op, h.Total(), h.Metrics(), r.total, r.m)
		}
		if !bytes.Equal(h.Marshal(), r.Marshal()) {
			t.Fatalf("step %d (op %d): marshalled pages differ from the reference's", step, op)
		}
	}
}

// TestHBPSOpsMatchReference runs the differential check over seeded random
// tapes, so plain `go test` covers what FuzzHBPSOps explores.
func TestHBPSOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		tape := make([]byte, 40+rng.Intn(400))
		rng.Read(tape)
		runOpsAgainstReference(t, tape)
	}
}

// fuzzTape is the tape FuzzHBPSOps runs: n random bytes (at most 1024) from
// seed with data laid over them from byte at, lengthening the tape where data
// reaches further. Any tape is one (data, n 0), and a long tape is a few
// bytes of input: the fuzzer minimizes an input that finds new coverage by a
// pass quadratic in data's length, and here a shifted or dropped byte
// changes every op after it, so nearly every candidate fails and the pass
// ran past the end of a smoke.
func fuzzTape(data []byte, at, n uint16, seed int64) []byte {
	n = min(n, 1024)
	tape := make([]byte, max(int(n), int(at)+len(data)))
	rand.New(rand.NewSource(seed)).Read(tape[:n])
	copy(tape[at:], data)
	return tape
}

// FuzzHBPSOps is the same check under the fuzzer. The seeds reach each
// operation, a list overflowing its capacity, and a replenish and a reload
// of a structure with evictions behind it.
func FuzzHBPSOps(f *testing.F) {
	for _, tape := range [][]byte{
		{0, 1, 63, 0, 1, 10, 3, 1, 0, 5, 2, 0, 4, 5, 3},
		{0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 4, 64, 4, 3, 5, 3, 3},
		{0, 4, 60, 0, 4, 60, 0, 4, 60, 0, 4, 60, 0, 4, 60, 0, 4, 60, 0, 4, 60, 0, 4, 61, 1, 2, 7, 5, 4, 2, 0, 3},
	} {
		f.Add(tape, uint16(0), uint16(0), int64(0))
	}
	f.Add([]byte{}, uint16(0), uint16(1024), int64(1)) // a long random tape
	f.Fuzz(func(t *testing.T, data []byte, at, n uint16, seed int64) {
		runOpsAgainstReference(t, fuzzTape(data, at, n, seed))
	})
}
