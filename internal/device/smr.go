package device

import (
	"fmt"
	"time"
)

// SMR models a drive-managed shingled magnetic recording drive (§3.2.3).
//
// Tracks within a shingle zone overlap, so the drive can only append at each
// zone's write pointer without extra work. A write below the write pointer
// (into already-shingled tracks) would corrupt subsequent tracks, so the
// drive must intervene: read and rewrite the rest of the zone in place, or
// remap the write out of place and garbage-collect later. Either way the
// host observes a large penalty; we charge InterventionPenalty and count the
// event. A write at or past the write pointer is a cheap sequential append.
type SMR struct {
	// ZoneBlocks is the shingle-zone size in 4KiB blocks. The size of a
	// shingle zone is unrelated to (and different from) an SSD erase block
	// (§3.2.4); 64MiB zones (16384 blocks) are representative.
	ZoneBlocks uint64
	// Position and TransferPerBlock are as for HDD.
	Position         time.Duration
	TransferPerBlock time.Duration
	// InterventionPenalty is charged whenever a large write lands below a
	// zone's write pointer and the drive must preserve the shingled data
	// (read-modify-write or out-of-place remap plus eventual GC).
	InterventionPenalty time.Duration
	// MediaCacheMaxBlocks is the largest below-write-pointer write the
	// drive absorbs in its persistent media cache instead of intervening
	// immediately; drive-managed SMR drives stage small random writes this
	// way. MediaCachePenalty is the extra cost of such a staged write.
	MediaCacheMaxBlocks uint64
	MediaCachePenalty   time.Duration

	blocks uint64
	wp     []uint64 // per-zone write pointer (offset within zone)

	stats            DiskStats
	interventions    uint64
	mediaCacheWrites uint64
}

// NewSMR builds an SMR model over a DBN space of the given size.
func NewSMR(blocks, zoneBlocks uint64) *SMR {
	if zoneBlocks == 0 || blocks == 0 {
		panic("device: SMR requires non-zero size and zone size")
	}
	zones := (blocks + zoneBlocks - 1) / zoneBlocks
	return &SMR{
		ZoneBlocks:          zoneBlocks,
		Position:            8 * time.Millisecond,
		TransferPerBlock:    22 * time.Microsecond,
		InterventionPenalty: 60 * time.Millisecond,
		MediaCacheMaxBlocks: 64,
		MediaCachePenalty:   3 * time.Millisecond,
		blocks:              blocks,
		wp:                  make([]uint64, zones),
	}
}

// Zones returns the number of shingle zones.
func (s *SMR) Zones() int { return len(s.wp) }

// WriteChain writes n consecutive blocks starting at DBN start, returning
// the service time. The chain is split at zone boundaries; each zone segment
// is classified against that zone's write pointer.
func (s *SMR) WriteChain(start, n uint64) time.Duration {
	if start+n > s.blocks {
		panic(fmt.Sprintf("device: SMR write [%d,%d) outside %d blocks", start, start+n, s.blocks))
	}
	total := n
	var d time.Duration
	d += s.Position
	for n > 0 {
		zone := start / s.ZoneBlocks
		off := start % s.ZoneBlocks
		seg := s.ZoneBlocks - off
		if seg > n {
			seg = n
		}
		if off < s.wp[zone] {
			if total <= s.MediaCacheMaxBlocks {
				// Small random update: staged in the drive's persistent
				// media cache and folded into the shingle later.
				s.mediaCacheWrites++
				d += s.MediaCachePenalty
			} else {
				// Writing into already-shingled tracks: drive intervention.
				s.interventions++
				d += s.InterventionPenalty
			}
			// The write pointer does not advance past its high-water mark
			// unless this segment extends beyond it.
			if off+seg > s.wp[zone] {
				s.wp[zone] = off + seg
			}
		} else {
			// Sequential append (a gap between wp and off is allowed:
			// drive-managed drives pad or remap silently and cheaply when
			// writing forward).
			s.wp[zone] = off + seg
		}
		d += time.Duration(seg) * s.TransferPerBlock
		start += seg
		n -= seg
	}
	s.stats.WriteIOs++
	s.stats.BlocksWritten += total
	s.stats.BusyTime += d
	return d
}

// RandomWrite writes n blocks at start as an isolated random I/O (used for
// out-of-band checksum-block updates); it pays positioning plus the same
// zone classification as WriteChain.
func (s *SMR) RandomWrite(start, n uint64) time.Duration {
	return s.WriteChain(start, n)
}

// Read returns the service time for one read I/O of n consecutive blocks.
func (s *SMR) Read(n uint64) time.Duration {
	d := s.Position + time.Duration(n)*s.TransferPerBlock
	s.stats.ReadIOs++
	s.stats.BlocksRead += n
	s.stats.BusyTime += d
	return d
}

// ResetZone rewinds a zone's write pointer (the analogue of the host
// freeing and reusing an entire zone-aligned region).
func (s *SMR) ResetZone(zone int) {
	s.wp[zone] = 0
}

// WritePointer returns zone's current write pointer offset.
func (s *SMR) WritePointer(zone int) uint64 { return s.wp[zone] }

// Interventions returns how many writes required drive intervention.
func (s *SMR) Interventions() uint64 { return s.interventions }

// MediaCacheWrites returns how many small below-write-pointer writes the
// drive staged in its media cache.
func (s *SMR) MediaCacheWrites() uint64 { return s.mediaCacheWrites }

// Stats returns the drive's lifetime I/O accounting.
func (s *SMR) Stats() DiskStats { return s.stats }
