package wafl

import (
	"waflfs/internal/aa"
	"waflfs/internal/ordset"
)

// deltaLedger accumulates per-AA free-count changes (allocations negative,
// frees positive) between cache folds: the open and sealed banks of every
// group and space. AA IDs are small dense integers, so the values sit in a
// flat array and an ordered set of the IDs present makes the ledger behave
// like the map it replaces without hashing, per-fold allocation or a sort at
// the fold. Present means non-zero: an entry whose sum comes back to zero
// leaves the ledger, so a fold sees only AAs whose score moved.
type deltaLedger struct {
	d       []int64 // zero wherever present has no member
	present ordset.Bits
}

func newDeltaLedger(numAAs int) *deltaLedger {
	l := &deltaLedger{d: make([]int64, numAAs)}
	l.present.Grow(uint64(numAAs))
	return l
}

// len returns the number of entries present.
func (l *deltaLedger) len() int { return l.present.Len() }

// get returns id's delta; absent reads as zero.
func (l *deltaLedger) get(id aa.ID) int64 { return l.d[id] }

// add adds delta to id's entry, creating it if absent and removing it if
// the sum comes to zero.
func (l *deltaLedger) add(id aa.ID, delta int64) {
	if l.d[id] += delta; l.d[id] == 0 {
		l.present.Delete(uint64(id))
	} else {
		l.present.Add(uint64(id))
	}
}

// delete removes id's entry.
func (l *deltaLedger) delete(id aa.ID) {
	l.present.Delete(uint64(id))
	l.d[id] = 0
}

// clear removes every entry, keeping the storage.
func (l *deltaLedger) clear() {
	l.present.Drain(func(id uint64) { l.d[id] = 0 })
}

// drain removes every entry, handing each to fn in ascending AA order — the
// order cache updates must be applied in, since both caches break score ties
// by insertion sequence. fn may add to other ledgers, not to this one.
func (l *deltaLedger) drain(fn func(id aa.ID, d int64)) {
	l.present.Drain(func(id uint64) {
		d := l.d[id]
		l.d[id] = 0
		fn(aa.ID(id), d)
	})
}
