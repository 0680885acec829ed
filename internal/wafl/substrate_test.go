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
// space has) and two maps that hold only non-zero sums. A sum that comes back
// to zero reads as absent: it is not counted, and the drain does not hand it
// out. Adds of several blocks jump over zero as well as onto it, and after
// every step the present set is exactly the non-zero entries.
func TestDeltaLedgerMatchesMap(t *testing.T) {
	const numAAs = 200
	rng := rand.New(rand.NewSource(21))
	open, sealed := newDeltaLedger(numAAs), newDeltaLedger(numAAs)
	mOpen, mSealed := map[aa.ID]int64{}, map[aa.ID]int64{}
	add := func(m map[aa.ID]int64, id aa.ID, d int64) {
		if m[id] += d; m[id] == 0 {
			delete(m, id)
		}
	}
	check := func(step int, l *deltaLedger, m map[aa.ID]int64) {
		t.Helper()
		if l.len() != len(m) {
			t.Fatalf("step %d: len %d, map %d", step, l.len(), len(m))
		}
		for id := aa.ID(0); id < numAAs; id++ {
			if l.get(id) != m[id] {
				t.Fatalf("step %d AA %d: ledger %d, map %d", step, id, l.get(id), m[id])
			}
			if l.present.Has(uint64(id)) != (m[id] != 0) {
				t.Fatalf("step %d AA %d: present %v with sum %d", step, id, l.present.Has(uint64(id)), m[id])
			}
		}
	}
	for step := 0; step < 5000; step++ {
		id := aa.ID(rng.Intn(numAAs))
		switch op := rng.Intn(100); {
		case op < 45: // allocations and frees come in ones
			d := int64(1 - 2*rng.Intn(2))
			open.add(id, d)
			add(mOpen, id, d)
		case op < 55: // a tetris's worth, or a free undoing part of one
			d := int64(rng.Intn(9) - 4)
			open.add(id, d)
			add(mOpen, id, d)
		case op < 65:
			sealed.add(id, 1) // reclaim credits the sealed bank directly
			add(mSealed, id, 1)
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
			delete(mSealed, id)
		case op < 88: // seal
			open, sealed = sealed, open
			mOpen, mSealed = mSealed, mOpen
		case op < 96: // fold: ascending order, every entry once, none zero
			want := sortedIDs(mSealed)
			var got []aa.ID
			sealed.drain(func(id aa.ID, d int64) {
				if d == 0 || d != mSealed[id] {
					t.Fatalf("step %d: drained AA %d = %d, map %d", step, id, d, mSealed[id])
				}
				got = append(got, id)
				open.add(id, d) // what foldSealed does with an untracked AA
				add(mOpen, id, d)
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

	// An allocation and a free to one AA leave the ledger empty.
	l := newDeltaLedger(numAAs)
	l.add(70, -1)
	l.add(70, 1)
	if l.len() != 0 || l.get(70) != 0 {
		t.Fatalf("add/sub pair: len %d, AA 70 = %d, want an empty ledger", l.len(), l.get(70))
	}
	l.drain(func(id aa.ID, d int64) { t.Fatalf("drained AA %d = %d from an empty ledger", id, d) })

	// An entry deleted and added again between two drains comes out once,
	// in its place, holding what was added after the delete.
	l.add(70, -3)
	l.delete(70)
	l.add(70, 1)
	l.add(3, 2)
	var got [][2]int64
	l.drain(func(id aa.ID, d int64) { got = append(got, [2]int64{int64(id), d}) })
	if want := [][2]int64{{3, 2}, {70, 1}}; !slices.Equal(got, want) || l.len() != 0 {
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
				if p == before[lba] || p.virt == 0 || (i > 0 && p.virt.vbn() <= last) {
					t.Fatalf("%d blocks, %s: LBA %d got %+v after %v (was %+v)", blocks, round, lba, p, last, before[lba])
				}
				last = p.virt.vbn()
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

// TestGroupOfMatchesRangeScan holds groupOf's start index to the scan of
// every group's range it replaced, at each group's first and last VBN — with
// one, three, nine and eleven groups, the last two of each added by AddGroup —
// and one past the last group it panics with the scan's text.
func TestGroupOfMatchesRangeScan(t *testing.T) {
	scan := func(ag *Aggregate, v block.VBN) *Group {
		for _, g := range ag.groups {
			if g.geo.VBNRange().Contains(v) {
				return g
			}
		}
		return nil
	}
	for _, n := range []int{1, 3, 9, 11} {
		var specs []GroupSpec
		for i := 0; i < n; i++ {
			specs = append(specs, GroupSpec{DataDevices: 1 + i%4, ParityDevices: 1, BlocksPerDevice: uint64(100 + 37*i), Media: aa.MediaHDD})
		}
		built := max(1, n-2)
		ag := NewAggregate(specs[:built], DefaultTunables(), 1)
		for _, spec := range specs[built:] {
			ag.AddGroup(spec)
		}
		for _, g := range ag.groups {
			r := g.geo.VBNRange()
			for _, v := range []block.VBN{r.Start, r.End - 1} {
				if got, want := ag.groupOf(v), scan(ag, v); got != want {
					t.Fatalf("%d groups: groupOf(%v) = rg%d, the range scan finds rg%d", n, v, got.Index, want.Index)
				}
			}
		}
		end := ag.groups[n-1].geo.VBNRange().End
		want := fmt.Sprintf("wafl: physical %v outside aggregate", end)
		if got := recovered(func() { ag.groupOf(end) }); got != want {
			t.Fatalf("%d groups: groupOf(%v) panicked %q, want %q", n, end, got, want)
		}
	}
}
