package wafl

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

// Differential tests of the dense substrate (reftable.go, ledger.go) against
// the hash maps it replaced.

// recovered runs fn and returns what it panicked with ("" if it returned).
func recovered(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// refModel is the map-backed refcount table as FlexVol had it, panics
// included, under the operations the restore's count table keeps.
type refModel map[block.VBN]uint16

func (m refModel) set(v block.VBN, n uint16) {
	if m[v] != 0 || n == 0 {
		panic(fmt.Sprintf("wafl: set of virtual %v to %d, table has %d", v, n, m[v]))
	}
	m[v] = n
}

func (m refModel) remove(v block.VBN) uint16 {
	n, ok := m[v]
	if !ok {
		panic(fmt.Sprintf("wafl: unref of unknown virtual %v", v))
	}
	delete(m, v)
	return n
}

func (m refModel) unref(v block.VBN) bool {
	n := m.remove(v)
	if n > 1 {
		m[v] = n - 1
	}
	return n == 1
}

// FuzzRefTable drives one op sequence through the paged table and the map:
// same counts, same Len, same panics (message and all), a page held exactly
// while its range has a live count, and released pages reused before any new
// one is made.
func FuzzRefTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 17, 0, 0, 33, 0, 2, 1, 0, 2, 17, 0, 2, 33, 0, 0, 49, 0})
	f.Add([]byte{1, 5, 5, 2, 5, 5, 0, 5, 5, 0, 5, 5})
	f.Add([]byte{3, 2, 9, 7, 2, 9, 1, 2, 9, 2, 2, 9, 1, 2, 9, 11, 3, 200, 1, 3, 200, 1, 3, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		const space = 3*refPageSize + 100 // four pages, the last one short
		tab, ref := newRefTable(space), refModel{}
		peakPages := 0
		for ; len(data) >= 3; data = data[3:] {
			// Sixteen VBNs per page (pairs, spread over its width; the short
			// last page folds them onto its 100), so that short inputs fill,
			// empty and refill pages.
			page, slot := block.VBN(data[1]%4), block.VBN(data[2]%8)*(refPageSize/8)+block.VBN(data[2]>>3%2)
			v := page<<refPageShift | slot
			if v >= space {
				v = page<<refPageShift | slot%100
			}
			// The op byte's high bits are a set's count: 0 (refused), small
			// ones, and the two largest.
			n := uint16(data[0] >> 2)
			if n >= 62 {
				n += math.MaxUint16 - 63
			}
			var got, want string
			var gotN, wantN uint16
			var gotLast, wantLast bool
			switch data[0] % 4 {
			case 0, 3:
				got, want = recovered(func() { tab.set(v, n) }), recovered(func() { ref.set(v, n) })
			case 1:
				got = recovered(func() { gotN = tab.remove(v) })
				want = recovered(func() { wantN = ref.remove(v) })
			case 2:
				got = recovered(func() { gotLast = tab.unref(v) })
				want = recovered(func() { wantLast = ref.unref(v) })
			}
			if got != want || gotN != wantN || gotLast != wantLast {
				t.Fatalf("op %d on %v: table panic %q count %d last %v, map panic %q count %d last %v",
					data[0]%4, v, got, gotN, gotLast, want, wantN, wantLast)
			}
			if tab.Len() != len(ref) {
				t.Fatalf("Len %d, map holds %d", tab.Len(), len(ref))
			}
			var perPage [space>>refPageShift + 1]int
			for rv, rn := range ref {
				perPage[rv>>refPageShift]++
				if tab.get(rv) != rn {
					t.Fatalf("count of %v: table %d, map %d", rv, tab.get(rv), rn)
				}
			}
			if tab.get(v) != ref[v] {
				t.Fatalf("count of %v: table %d, map %d", v, tab.get(v), ref[v])
			}
			held := 0
			for i, p := range tab.dir {
				if (p != nil) != (perPage[i] > 0) || int(tab.live[i]) != perPage[i] {
					t.Fatalf("page %d: held %v with live count %d, map has %d entries there", i, p != nil, tab.live[i], perPage[i])
				}
				if p != nil {
					held++
				}
			}
			peakPages = max(peakPages, held)
			if held+len(tab.free) != peakPages {
				t.Fatalf("%d pages held + %d free, but at most %d were ever needed at once: a released page was not reused", held, len(tab.free), peakPages)
			}
		}
	})
}

// A 16-bit count must refuse its 65536th holder, not wrap to zero: the table
// takes no count of zero.
func TestRefTableOverflowPanics(t *testing.T) {
	tab := newRefTable(10)
	tab.set(7, math.MaxUint16)
	n := tab.remove(7)
	if msg := recovered(func() { tab.set(7, n+1) }); msg == "" || tab.Len() != 0 {
		t.Fatalf("set to a wrapped count: panic %q, Len %d", msg, tab.Len())
	}
}

// sortedIDs returns the reference map's keys in ascending AA order.
func sortedIDs[V any](m map[aa.ID]V) []aa.ID {
	ids := make([]aa.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TestDeltaLedgerMatchesMap drives random add / delete / get / swap / drain /
// clear sequences through two ledgers (an open and a sealed bank, as every
// space has) and two maps. Entries whose value is zero but which are present
// must survive in both and come out of the drain, and so must an entry added,
// deleted and added again between two drains — once, with its second value.
func TestDeltaLedgerMatchesMap(t *testing.T) {
	const numAAs = 200
	rng := rand.New(rand.NewSource(21))
	open, sealed := newDeltaLedger(numAAs), newDeltaLedger(numAAs)
	mOpen, mSealed := map[aa.ID]int64{}, map[aa.ID]int64{}
	check := func(step int, l *deltaLedger, m map[aa.ID]int64) {
		t.Helper()
		if l.len() != len(m) {
			t.Fatalf("step %d: len %d, map %d", step, l.len(), len(m))
		}
		for id := aa.ID(0); id < numAAs; id++ {
			d, ok := m[id]
			if l.has(id) != ok || l.get(id) != d {
				t.Fatalf("step %d AA %d: ledger (%v, %d), map (%v, %d)", step, id, l.has(id), l.get(id), ok, d)
			}
		}
		if id, d, ok := l.first(); ok != (len(m) > 0) || (ok && (id != slices.Min(sortedIDs(m)) || d != m[id])) {
			t.Fatalf("step %d: first() = (%d, %d, %v) against map %v", step, id, d, ok, m)
		}
	}
	presentZeroDrained := 0
	for step := 0; step < 5000; step++ {
		id := aa.ID(rng.Intn(numAAs))
		switch op := rng.Intn(100); {
		case op < 55: // allocations and frees come in ones
			d := int64(1 - 2*rng.Intn(2))
			open.add(id, d)
			mOpen[id] += d
		case op < 65:
			sealed.add(id, 1) // reclaim credits the sealed bank directly
			mSealed[id]++
		case op < 77:
			open.delete(id)
			delete(mOpen, id)
			sealed.delete(id)
			delete(mSealed, id)
		case op < 80: // finishAA settling an AA that is written to again at once
			sealed.add(id, -3)
			sealed.delete(id)
			sealed.add(id, 1)
			sealed.add(id, -1)
			mSealed[id] = 0
		case op < 88: // seal
			open, sealed = sealed, open
			mOpen, mSealed = mSealed, mOpen
		case op < 96: // fold: ascending order, every present entry once
			want := sortedIDs(mSealed)
			var got []aa.ID
			sealed.drain(func(id aa.ID, d int64) {
				if d != mSealed[id] {
					t.Fatalf("step %d: drained AA %d = %d, map %d", step, id, d, mSealed[id])
				}
				if d == 0 {
					presentZeroDrained++
				}
				got = append(got, id)
				open.add(id, d) // what foldSealed does with an untracked AA
				mOpen[id] += d
			})
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: drained %v, map keys %v", step, got, want)
			}
			clear(mSealed)
		default:
			open.clear()
			clear(mOpen)
		}
		check(step, open, mOpen)
		check(step, sealed, mSealed)
	}
	if presentZeroDrained == 0 {
		t.Fatal("the sequence never drained a present entry with delta zero")
	}

	// The same within one drain interval, spelled out: the entry comes out
	// once, in its place, holding what was added after the delete.
	l := newDeltaLedger(numAAs)
	l.add(70, -3)
	l.delete(70)
	l.add(70, 1)
	l.add(70, -1)
	l.add(3, 2)
	var got [][2]int64
	l.drain(func(id aa.ID, d int64) { got = append(got, [2]int64{int64(id), d}) })
	if want := [][2]int64{{3, 2}, {70, 0}}; !slices.Equal(got, want) || l.len() != 0 {
		t.Fatalf("add, delete, add, drain: got %v (len %d after), want %v", got, l.len(), want)
	}
}

// TestWriteBufferMatchesSortedList drives the write buffer next to the
// list-and-sort it replaced: a block joins the list the first time it is
// written in a CP, the CP sorts the list. LUN sizes sit on and either side of
// the buffer's word and summary-word boundaries (and one block past 64^3);
// writes straddle those boundaries, overlap and repeat. Before each CP the
// buffer must hold exactly the sorted list; after it exactly those blocks must
// have new VBN pairs, handed out in ascending LBA order (virtual VBNs ascend
// on a volume this fresh), and the buffer must be empty again — across an
// empty CP and two CPs back to back.
func TestWriteBufferMatchesSortedList(t *testing.T) {
	for _, blocks := range []uint64{1, 63, 64, 65, 4095, 4096, 4097, 64*64*64 + 1} {
		tun := DefaultTunables()
		tun.CPEveryOps = 1 << 30
		s := NewSystem(testSpecs(), []VolSpec{{Name: "vol0", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 1)
		lun := s.Agg.Vols()[0].CreateLUN("lun0", blocks)
		rng := rand.New(rand.NewSource(int64(blocks)))
		var list []uint64
		seen := map[uint64]bool{}
		write := func(lba uint64, n uint64) {
			if lba >= blocks {
				return
			}
			n = min(n, blocks-lba)
			s.Write(lun, lba, int(n))
			for b := lba; b < lba+n; b++ {
				if !seen[b] {
					seen[b] = true
					list = append(list, b)
				}
			}
		}
		cp := func(round string) {
			t.Helper()
			slices.Sort(list)
			var buffered []uint64
			lun.dirty.Each(func(lba uint64) { buffered = append(buffered, lba) })
			if !slices.Equal(buffered, list) || s.pendingBlocks != len(list) {
				t.Fatalf("%d blocks, %s: buffer holds %v (%d pending), list %v", blocks, round, buffered, s.pendingBlocks, list)
			}
			before, written := slices.Clone(lun.blocks), s.Counters().BlocksWritten
			s.CP()
			if got := s.Counters().BlocksWritten - written; got != uint64(len(list)) {
				t.Fatalf("%d blocks, %s: CP wrote %d blocks, list holds %d", blocks, round, got, len(list))
			}
			last := block.VBN(0)
			for i, lba := range list {
				p := lun.blocks[lba]
				if p == before[lba] || p.virt == block.InvalidVBN || (i > 0 && p.virt <= last) {
					t.Fatalf("%d blocks, %s: LBA %d got %+v after %v (was %+v)", blocks, round, lba, p, last, before[lba])
				}
				last = p.virt
			}
			for lba, p := range lun.blocks {
				if !seen[uint64(lba)] && p != before[lba] {
					t.Fatalf("%d blocks, %s: LBA %d was not written and moved from %+v to %+v", blocks, round, lba, before[lba], p)
				}
			}
			if _, any := lun.dirty.Min(); any || lun.dirty.Len() != 0 || s.pendingBlocks != 0 || len(s.dirtyLUNs) != 0 {
				t.Fatalf("%d blocks, %s: buffer not empty after the CP", blocks, round)
			}
			list = list[:0]
			clear(seen)
		}
		cp("empty")
		for round := 0; round < 2; round++ {
			write(0, 1)
			write(blocks-1, 1)
			for _, edge := range []uint64{64, 128, 4096, 8192, 64 * 64 * 64} {
				write(edge-2, 4)   // across the boundary
				write(edge-1, 1)   // again, coalescing
				write(edge-3, 130) // over it and the next word's too
			}
			for i := 0; i < 300; i++ {
				write(uint64(rng.Int63n(int64(blocks))), uint64(1+rng.Intn(5)))
			}
			cp(fmt.Sprintf("round %d", round))
		}
		cp("empty again")
		checkConsistency(t, s)
	}
}

// The alloc stage orders dirty LUNs by rank, not by comparing names: whatever
// order volumes and LUNs are created in, (volume rank, LUN rank) must order
// them exactly as (volume name, LUN name) does.
func TestLUNRanksFollowNames(t *testing.T) {
	s := NewSystem(testSpecs(), nil, DefaultTunables(), 1)
	names := []string{"m", "b", "z", "a", "ab", "lun10", "lun9"}
	var luns []*LUN
	for _, vn := range names {
		v := s.Agg.AddVolume(VolSpec{Name: vn, Blocks: aa.RAIDAgnosticBlocks})
		for _, ln := range names {
			luns = append(luns, v.CreateLUN(ln, 8))
		}
	}
	slices.SortFunc(luns, func(a, b *LUN) int {
		return cmp.Or(cmp.Compare(a.vol.Name, b.vol.Name), cmp.Compare(a.Name, b.Name))
	})
	for i := 1; i < len(luns); i++ {
		a, b := luns[i-1], luns[i]
		if cmp.Or(cmp.Compare(a.vol.rank, b.vol.rank), cmp.Compare(a.rank, b.rank)) >= 0 {
			t.Fatalf("%s/%s ranks (%d, %d), not below %s/%s at (%d, %d)", a.vol.Name, a.Name, a.vol.rank, a.rank, b.vol.Name, b.Name, b.vol.rank, b.rank)
		}
	}
}

// BenchmarkRefTable is the churn overwrites under a snapshot put on the
// table: per block one set of a pair leaving the active image and one unref
// of a random older one.
func BenchmarkRefTable(b *testing.B) {
	const space, live = 1 << 20, 1 << 19
	tab := newRefTable(space)
	rng := rand.New(rand.NewSource(1))
	held := make([]block.VBN, 0, live)
	next := block.VBN(0)
	fresh := func() block.VBN { // the allocator hands out ascending free VBNs
		for tab.get(next) != 0 {
			next = (next + 1) % space
		}
		return next
	}
	for len(held) < live {
		v := fresh()
		tab.set(v, 1)
		held = append(held, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(live)
		tab.unref(held[k])
		held[k] = fresh()
		tab.set(held[k], 1)
	}
}
