package wafl

import (
	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/device"
	"waflfs/internal/ordset"
)

// Flash Pool (§2.1): an aggregate composed of one or more RAID groups of
// SSDs together with several RAID groups of HDDs, storing hot data and
// metadata on the faster media. Each media class keeps its own AA caches
// and sizing; this file adds the placement policy on top:
//
//   - with Tunables.FlashPool set, new writes (the hot data) are allocated
//     from SSD groups, falling back to the other groups only when flash is
//     short on space;
//   - Demote moves cold LUN ranges to the HDD groups through the normal
//     allocator, so demoted data lands in the emptiest HDD AAs as long
//     sequential chains.

// AllocatePhysicalPreferring allocates like AllocatePhysical but tries
// groups of the preferred media first, spilling to the remaining groups
// only for whatever those could not supply.
func (ag *Aggregate) AllocatePhysicalPreferring(dst []block.VBN, media aa.Media, n int) []block.VBN {
	out := ag.allocateFromMedia(dst, media, n, true)
	if got := len(out) - len(dst); got < n {
		out = ag.allocateFromMedia(out, media, n-got, false)
	}
	return out
}

// allocateFromMedia runs the tetris round-robin restricted to groups whose
// media matches (or doesn't, when match is false), appending to dst.
func (ag *Aggregate) allocateFromMedia(dst []block.VBN, media aa.Media, n int, match bool) []block.VBN {
	out, stop := dst, len(dst)+n
	for len(out) < stop {
		anyAlive := false
		for i := range ag.groups {
			g := ag.groups[(ag.nextRR+i)%len(ag.groups)]
			if (g.Spec.Media == media) != match {
				continue
			}
			var more bool
			out, more = g.allocateTetris(ag.bm, out, stop-len(out))
			if more {
				anyAlive = true
			}
			if len(out) >= stop {
				break
			}
		}
		ag.nextRR = (ag.nextRR + 1) % len(ag.groups)
		if !anyAlive {
			break
		}
	}
	return out
}

// Demote moves every written block of l selected by the predicate from SSD
// groups to HDD groups: new HDD VBNs come from the normal AA-cache-guided
// allocator (so cold data lands in the emptiest HDD AAs and flushes as long
// chains at the next CP), the flash copies are read and freed, and every
// referent — active image and snapshots — is repointed. Must run at a CP
// boundary. Returns the number of blocks demoted.
func (s *System) Demote(l *LUN, select_ func(lba uint64) bool) int {
	if !s.atBoundary() {
		panic("wafl: Demote must run at a CP boundary")
	}
	var move []block.VBN
	var want ordset.Bits
	want.Grow(s.Agg.bm.Size())
	for lba := range l.blocks {
		p := l.Phys(uint64(lba))
		if p == block.InvalidVBN || !select_(uint64(lba)) {
			continue
		}
		if s.Agg.pool != nil && s.Agg.pool.Contains(p) {
			continue
		}
		if s.Agg.groupOf(p).Spec.Media != aa.MediaSSD {
			continue // already on capacity media
		}
		if want.Add(uint64(p)) {
			move = append(move, p)
		}
	}
	if len(move) == 0 {
		return 0
	}
	reverse := make(map[block.VBN][]*blockPtr, len(move))
	s.indexSlots(reverse, &want)
	newVBNs := s.Agg.allocateFromMedia(nil, aa.MediaHDD, len(move), true)
	if len(newVBNs) < len(move) {
		panic("wafl: HDD tier out of space during demotion")
	}
	s.Agg.markFresh(newVBNs)
	for i, old := range move {
		g := s.Agg.groupOf(old)
		d, dbn := g.geo.Locate(old)
		if g.azcs {
			dbn = device.DataToDiskDBN(dbn)
		}
		_ = dbn
		s.c.DeviceBusy += g.devices[d].Read(1)
		for _, slot := range reverse[old] {
			slot.phys = pack(newVBNs[i])
		}
		s.Agg.FreePhysical(old)
	}
	return len(move)
}

// MediaUsage reports the used fraction of each media class's capacity.
func (ag *Aggregate) MediaUsage() map[aa.Media]float64 {
	used := make(map[aa.Media]uint64)
	total := make(map[aa.Media]uint64)
	for _, g := range ag.groups {
		r := g.geo.VBNRange()
		used[g.Spec.Media] += ag.bm.CountUsed(r)
		total[g.Spec.Media] += r.Len()
	}
	out := make(map[aa.Media]float64, len(total))
	for m, t := range total {
		out[m] = float64(used[m]) / float64(t)
	}
	return out
}
