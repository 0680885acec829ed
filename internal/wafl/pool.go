package wafl

import (
	"time"

	"waflfs/internal/block"
	"waflfs/internal/ordset"
)

// Object-store pool (FabricPool, §2.1): physical storage with native
// resiliency and redundancy — an on-premises or cloud object store — that
// ONTAP does not arrange into RAID. Its physical VBN range uses
// RAID-agnostic allocation areas ("this is also true for writing to an
// object store that provides native redundancy", §3.3.2): consecutive
// 32k-block AAs tracked by an HBPS cache, with allocation aimed purely at
// colocating block numbers.
//
// Cold data moves to the pool through TierOut; the pool's cost model
// charges object PUTs (blocks are buffered into fixed-size objects at each
// CP) and GETs for reads. Object compaction/defragmentation is out of
// scope; frees simply return VBNs to the pool's free space.

// PoolSpec configures an object-store pool.
type PoolSpec struct {
	// Blocks is the pool's physical VBN-space size.
	Blocks uint64
	// ObjectBlocks is the object size in 4KiB blocks (default 1024 = 4MiB).
	ObjectBlocks uint64
	// PutLatency and GetLatency are per-request object-store round trips
	// (defaults 30ms and 15ms).
	PutLatency, GetLatency time.Duration
	// PerBlock is the transfer time per 4KiB block (default 8µs ≈ 4Gbit/s).
	PerBlock time.Duration
}

func (p PoolSpec) defaults() PoolSpec {
	if p.ObjectBlocks == 0 {
		p.ObjectBlocks = 1024
	}
	if p.PutLatency == 0 {
		p.PutLatency = 30 * time.Millisecond
	}
	if p.GetLatency == 0 {
		p.GetLatency = 15 * time.Millisecond
	}
	if p.PerBlock == 0 {
		p.PerBlock = 8 * time.Microsecond
	}
	return p
}

// Pool is the runtime state of an object-store tier.
type Pool struct {
	spec  PoolSpec
	space *agnosticSpace

	cpBlocks int // blocks written (tiered out) since the last seal
	// flushBlocks is the sealed generation's bank: the seal stage moves
	// cpBlocks here and flushSealed ships it.
	flushBlocks int

	puts, gets    uint64
	blocksTiered  uint64
	blocksFetched uint64
	busy          time.Duration
}

// poolTopAAKey names the pool's TopAA metafile entry.
const poolTopAAKey = "objectpool"

// AddObjectPool attaches an object-store tier at the top of the aggregate's
// physical VBN space. At most one pool is supported (matching FabricPool's
// one-capacity-tier model).
func (ag *Aggregate) AddObjectPool(spec PoolSpec) *Pool {
	if ag.pool != nil {
		panic("wafl: aggregate already has an object pool")
	}
	spec = spec.defaults()
	if spec.Blocks == 0 {
		panic("wafl: zero-size object pool")
	}
	checkCap("aggregate with its object pool", ag.bm.Size()+spec.Blocks)
	start := block.VBN(ag.bm.Size())
	ag.bm.Grow(uint64(start) + spec.Blocks)
	p := &Pool{spec: spec}
	p.space = newAgnosticSpace(poolTopAAKey, block.R(start, start+block.VBN(spec.Blocks)),
		ag.bm, ag.tun, ag.tun.AggregateCacheEnabled, ag.rng)
	ag.pool = p
	ag.spaces = append(ag.spaces, p.space)
	ag.registerSpaceObs(p.space, "pool")
	ag.reg.CounterFunc("pool.puts", func() uint64 { return p.puts })
	ag.reg.CounterFunc("pool.gets", func() uint64 { return p.gets })
	ag.reg.CounterFunc("pool.blocks_tiered", func() uint64 { return p.blocksTiered })
	ag.reg.CounterFunc("pool.blocks_fetched", func() uint64 { return p.blocksFetched })
	ag.reg.CounterFunc("pool.busy_ns", func() uint64 { return uint64(p.busy) })
	return p
}

// Pool returns the aggregate's object pool, or nil.
func (ag *Aggregate) Pool() *Pool { return ag.pool }

// Range returns the pool's physical VBN range.
func (p *Pool) Range() block.Range { return p.space.topo.Space() }

// Contains reports whether v lies in the pool.
func (p *Pool) Contains(v block.VBN) bool { return p.Range().Contains(v) }

// PoolStats is the pool's lifetime accounting.
type PoolStats struct {
	Puts, Gets    uint64
	BlocksTiered  uint64
	BlocksFetched uint64
}

// Stats returns the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Puts: p.puts, Gets: p.gets, BlocksTiered: p.blocksTiered, BlocksFetched: p.blocksFetched}
}

// read charges one block fetch.
func (p *Pool) read(n uint64) time.Duration {
	d := p.spec.GetLatency + time.Duration(n)*p.spec.PerBlock
	p.gets++
	p.blocksFetched += n
	p.busy += d
	return d
}

// flushSealed ships the sealed generation's tiered blocks as objects.
func (p *Pool) flushSealed() time.Duration {
	if p.flushBlocks == 0 {
		return 0
	}
	objects := (uint64(p.flushBlocks) + p.spec.ObjectBlocks - 1) / p.spec.ObjectBlocks
	d := time.Duration(objects)*p.spec.PutLatency + time.Duration(p.flushBlocks)*p.spec.PerBlock
	p.puts += objects
	p.blocksTiered += uint64(p.flushBlocks)
	p.flushBlocks = 0
	p.busy += d
	return d
}

// TierOut moves every written LUN block selected by the predicate to the
// object pool: pool VBNs are allocated (HBPS-guided, colocated in the
// pool's number space), the RAID-group copies are read and freed, and all
// referents (active image and snapshots) are repointed. Must run at a CP
// boundary; the object PUTs are charged when that CP commits. Returns the
// number of blocks tiered.
func (s *System) TierOut(l *LUN, select_ func(lba uint64) bool) int {
	pool := s.Agg.pool
	if pool == nil {
		panic("wafl: TierOut without an object pool")
	}
	if !s.atBoundary() {
		panic("wafl: TierOut must run at a CP boundary")
	}
	// Collect distinct physical blocks to move (a snapshot-shared block
	// appears once).
	var move []block.VBN
	var want ordset.Bits
	want.Grow(s.Agg.bm.Size())
	for lba := range l.blocks {
		p := l.Phys(uint64(lba))
		if p == block.InvalidVBN || pool.Contains(p) || !select_(uint64(lba)) {
			continue
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
	newVBNs := pool.space.allocate(nil, len(move))
	if len(newVBNs) < len(move) {
		panic("wafl: object pool out of space during tiering")
	}
	for i, old := range move {
		// Read the hot copy from its RAID group.
		g := s.Agg.groupOf(old)
		d, dbn := g.geo.Locate(old)
		_ = dbn
		s.c.DeviceBusy += g.devices[d].Read(1)
		// Repoint every referent, then free the group copy.
		for _, slot := range reverse[old] {
			slot.phys = pack(newVBNs[i])
		}
		s.Agg.FreePhysical(old)
	}
	pool.cpBlocks += len(move)
	return len(move)
}
