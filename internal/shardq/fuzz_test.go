package shardq_test

import (
	"math/rand"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/hbps"
	"waflfs/internal/heapcache"
	"waflfs/internal/shardq"
)

// staging is the part of a Queue's surface that does not mention its entry
// type, so one op tape can drive a queue over either backing.
type staging interface {
	Low(shard int) bool
	Stage(shard int) int
	FlushAll() int
	Restage()
	SetBatch(batch int)
	Holds(id aa.ID) bool
	HeldCount() int
	CheckInvariants() error
}

// rig is one backing under an op tape: the backing-specific mutations the
// wafl layer performs between picks, and the invariants that tie the backing
// to the queue.
type rig struct {
	q staging
	// track, update and untrack mutate the backing as the CP fold, finishAA
	// and a shrink would; each ignores an id it cannot apply to.
	track, update, untrack func(id aa.ID, arg byte)
	popDirect              func()
	// pick pops the shard through the queue's full protocol; reject makes it
	// turn the first entry down and Rebalance, as a zero-score front does.
	pick  func(shard int, reject bool)
	check func(t *testing.T)
}

const (
	fuzzIDs    = 32
	fuzzShards = 3
)

// heapRig: every AA the model knows is in exactly one place — tracked in
// the heap, held by the queue at its frozen score, or out (picked, waiting
// for finishAA to re-insert it). Held entries are never tracked.
func heapRig() rig {
	c := heapcache.New(fuzzIDs)
	q := shardq.New[heapcache.Entry](c, fuzzShards, 4)
	out := map[aa.ID]bool{}
	known := func(id aa.ID) bool { return c.Tracked(id) || q.Holds(id) || out[id] }
	return rig{
		q: q,
		track: func(id aa.ID, arg byte) {
			if out[id] { // finishAA: the drained AA returns with a fresh score
				delete(out, id)
				c.Insert(id, uint64(arg))
			} else if !known(id) {
				c.Insert(id, uint64(arg))
			}
		},
		update: func(id aa.ID, arg byte) { // the CP fold skips untracked IDs
			if c.Tracked(id) {
				c.Update(id, (c.Score(id)+uint64(arg)*7)%65)
			}
		},
		untrack: func(id aa.ID, _ byte) {
			if c.Tracked(id) {
				c.Remove(id)
			}
		},
		popDirect: func() {
			if e, ok := c.PopBest(); ok {
				out[e.ID] = true
			}
		},
		pick: func(shard int, reject bool) {
			e, p, ok := q.Pop(shard, nil)
			if ok && reject {
				c.GiveBack(e)
				e, _, ok = q.Rebalance(shard, p)
			}
			if ok {
				out[e.ID] = true
			}
		},
		check: func(t *testing.T) {
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			q.Each(func(shard int, e heapcache.Entry) {
				if c.Tracked(e.ID) {
					t.Fatalf("shard %d holds AA %d, still tracked in the heap", shard, e.ID)
				}
				if out[e.ID] {
					t.Fatalf("shard %d holds AA %d, which a pick already took", shard, e.ID)
				}
			})
			for id := range out {
				if c.Tracked(id) {
					t.Fatalf("picked AA %d is back in the heap without a finishAA", id)
				}
			}
		},
	}
}

// listRig: the HBPS keeps every AA histogram-tracked whatever the queue
// holds, so the tracked set — total and per-bin census — must match a model
// of the scores the structure was told about, after any interleaving.
func listRig() rig {
	h := hbps.New(hbps.Config{MaxScore: 64, BinWidth: 8, ListCap: 12})
	q := shardq.New[aa.ID](h, fuzzShards, 4)
	model := map[aa.ID]uint32{}
	refill := func() {
		if h.NeedsReplenish() {
			h.Replenish(func(yield func(aa.ID, uint32)) {
				for id := aa.ID(0); id < fuzzIDs; id++ {
					if s, ok := model[id]; ok {
						yield(id, s)
					}
				}
			})
		}
	}
	return rig{
		q: q,
		track: func(id aa.ID, arg byte) {
			if _, ok := model[id]; !ok {
				model[id] = uint32(arg) % 65
				h.Track(id, model[id])
			}
		},
		update: func(id aa.ID, arg byte) { // held or not — the CP fold does both
			if old, ok := model[id]; ok {
				model[id] = (old + uint32(arg)*7) % 65
				h.Update(id, old, model[id])
			}
		},
		untrack: func(id aa.ID, _ byte) { // never a held ID — the wafl layer never does
			if old, ok := model[id]; ok && !q.Holds(id) {
				h.Untrack(id, old)
				delete(model, id)
			}
		},
		popDirect: func() { h.PopBest() },
		pick: func(shard int, reject bool) {
			id, p, ok := q.Pop(shard, refill)
			if ok && reject {
				id, _, ok = q.Rebalance(shard, p)
			}
			if _, tracked := model[id]; ok && !tracked {
				panic("picked an untracked AA")
			}
		},
		check: func(t *testing.T) {
			if err := h.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if h.Total() != uint64(len(model)) {
				t.Fatalf("histogram tracks %d AAs, model %d", h.Total(), len(model))
			}
			census := make([]uint32, h.NumBins())
			for _, s := range model {
				census[h.Bin(s)]++
			}
			for b := range census {
				if h.BinCount(b) != census[b] {
					t.Fatalf("bin %d: histogram %d, model %d", b, h.BinCount(b), census[b])
				}
			}
			q.Each(func(shard int, id aa.ID) {
				if _, ok := model[id]; !ok {
					t.Fatalf("shard %d holds untracked AA %d", shard, id)
				}
			})
		},
	}
}

// fuzzTape is the tape FuzzQueueOps runs: n random bytes (at most 1024) from
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

// FuzzQueueOps drives one arbitrary op tape over a staging queue on a heap
// and on an HBPS: track/update/untrack mutations between picks (including
// bin-migrating updates that re-list held HBPS IDs), direct pops off the
// backing, full-protocol picks with stall refills and rejected fronts,
// pipelined staging, flushes, restages and batch-size changes. After every
// op: no AA is held twice, the held set matches the batches, batch bounds
// hold (the queue's own CheckInvariants), held heap entries are never
// tracked, and the HBPS's tracked set is preserved.
func FuzzQueueOps(f *testing.F) {
	for _, tape := range [][]byte{
		{0, 10, 0, 20, 0, 30, 4, 0, 4, 1, 1, 5, 5, 0, 3, 0},
		{0, 0, 0, 1, 0, 2, 0, 3, 4, 0, 4, 1, 4, 2, 5, 2, 2, 1},
		{0, 63, 1, 62, 4, 0, 6, 0, 1, 2, 5, 1, 4, 2},
		{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 9, 0, 4, 0, 7, 0, 8, 5, 6, 1, 4, 1, 10, 2, 0, 1, 4, 2},
		{0, 7, 0, 8, 0, 9, 9, 0, 8, 0, 4, 0, 4, 0, 4, 0, 10, 1, 7, 0, 9, 0, 3, 0},
	} {
		f.Add(tape, uint16(0), uint16(0), int64(0))
	}
	f.Add([]byte{}, uint16(0), uint16(600), int64(1))       // 300 random ops
	f.Add([]byte{4, 0}, uint16(400), uint16(800), int64(2)) // a pick amid 400 random ops
	f.Fuzz(func(t *testing.T, data []byte, at, n uint16, seed int64) {
		tape := fuzzTape(data, at, n, seed)
		for name, r := range map[string]rig{"heap": heapRig(), "hbps": listRig()} {
			for i := 0; i+1 < len(tape); i += 2 {
				op, arg := tape[i]%11, tape[i+1]
				id, shard := aa.ID(arg%fuzzIDs), int(arg)%fuzzShards
				switch op {
				case 0:
					r.track(id, arg)
				case 1:
					r.update(id, arg)
				case 2:
					r.untrack(id, arg)
				case 3:
					r.popDirect()
				case 4:
					r.pick(shard, false)
				case 5:
					if r.q.Low(shard) {
						r.q.Stage(shard)
					}
				case 6:
					r.q.Stage(shard)
				case 7:
					r.q.FlushAll()
				case 8:
					r.q.SetBatch(int(arg) % 7) // 0 clamps to 1
				case 9:
					r.q.Restage()
				case 10:
					r.pick(shard, true)
				}
				if err := r.q.CheckInvariants(); err != nil {
					t.Fatalf("%s, op %d (%d,%d): %v", name, i/2, op, arg, err)
				}
				r.check(t)
			}
		}
	})
}
