package wafl

import (
	"slices"

	"waflfs/internal/aa"
)

// deltaLedger accumulates per-AA free-count changes (allocations negative,
// frees positive) between cache folds: the open and sealed banks of every
// group and space, and the per-shard ledgers of the striped allocator. AA IDs
// are small dense integers, so the values sit in a flat array; a presence
// bit per AA and a list of the IDs touched since the last drain make the
// ledger behave like the map it replaces without hashing or per-fold
// allocation.
//
// Presence is not value. An allocation and a free to one AA leave an entry
// that is present with delta zero, and the callers tell the two apart:
// Group.foldSealed re-scores such an AA (and charges the cache op),
// allocState.fold drops it, finishAA deletes entries outright.
type deltaLedger struct {
	d       []int64
	present []uint64
	// ids lists every ID added since the last drain or clear — possibly more
	// than once, and possibly deleted since; the presence bit is what counts.
	ids []aa.ID
	n   int
}

func newDeltaLedger(numAAs int) *deltaLedger {
	return &deltaLedger{d: make([]int64, numAAs), present: make([]uint64, (numAAs+63)/64)}
}

// len returns the number of entries present.
func (l *deltaLedger) len() int { return l.n }

// has reports whether id has an entry, whatever its value.
func (l *deltaLedger) has(id aa.ID) bool {
	return l.present[id/64]&(1<<(id%64)) != 0
}

// get returns id's delta; absent reads as zero.
func (l *deltaLedger) get(id aa.ID) int64 { return l.d[id] }

// add adds delta to id's entry, creating it (at zero) if absent.
func (l *deltaLedger) add(id aa.ID, delta int64) {
	if w, m := id/64, uint64(1)<<(id%64); l.present[w]&m == 0 {
		l.present[w] |= m
		l.ids = append(l.ids, id)
		l.n++
	}
	l.d[id] += delta
}

// delete removes id's entry.
func (l *deltaLedger) delete(id aa.ID) {
	if l.has(id) {
		l.present[id/64] &^= 1 << (id % 64)
		l.d[id] = 0
		l.n--
	}
}

// clear removes every entry, keeping the storage.
func (l *deltaLedger) clear() {
	for _, id := range l.ids {
		l.delete(id)
	}
	l.ids = l.ids[:0]
}

// drain removes every entry, handing each to fn in ascending AA order — the
// order cache updates must be applied in, since both caches break score ties
// by insertion sequence. fn may add to other ledgers, not to this one.
func (l *deltaLedger) drain(fn func(id aa.ID, d int64)) {
	slices.Sort(l.ids)
	for _, id := range l.ids {
		if l.has(id) { // not deleted since, and not a repeat already drained
			d := l.d[id]
			l.delete(id)
			fn(id, d)
		}
	}
	l.ids = l.ids[:0]
}

// first returns the lowest-numbered entry.
func (l *deltaLedger) first() (id aa.ID, d int64, ok bool) {
	for _, c := range l.ids {
		if l.has(c) && (!ok || c < id) {
			id, ok = c, true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return id, l.d[id], true
}
