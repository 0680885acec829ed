package wafl

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"waflfs/internal/block"
	"waflfs/internal/control"
	"waflfs/internal/device"
	"waflfs/internal/obs/optrace"
)

// System is the client-facing facade: it accepts LUN reads and writes,
// buffers modifications, and flushes them in consistency points (§2.1:
// "WAFL collects the results of thousands of such modifying operations and
// efficiently flushes the changes to persistent storage"). It also owns the
// CPU cost accounting the experiments measure.
type System struct {
	Agg *Aggregate
	tun Tunables

	// dirtyLUNs lists the LUNs holding dirty blocks for the current CP; the
	// coalesced blocks themselves sit in each LUN's dirty set (see LUN).
	dirtyLUNs []*LUN
	// pendingBlocks counts dirty (lun, lba) pairs across the buffer.
	pendingBlocks int
	opsSinceCP    int

	// Scratch reused from call to call: the alloc stage's VBN lists and the
	// LBAs and old pairs it swaps them in over, Read's per-op block runs and
	// device-leaf durations, and what DeleteSnapshot orders a delta through.
	virtBuf, physBuf []block.VBN
	lbaBuf           []uint64
	oldBuf           []blockPtr
	poolRun          []block.VBN
	readRuns         []readRun
	readLeaves       []readLeaf
	snapScratch      deltaScratch

	c Counters
	// cpWall accumulates the modeled flush wall-clock (CPStats.FlushWall)
	// across CPs. Kept out of Counters: it is the one quantity that is
	// *supposed* to shrink with Tunables.Workers, while every Counters field
	// stays worker-count invariant. At depth 2 each boundary contributes
	// max(alloc wall, flush wall) instead of the flush wall alone (see
	// pipeline.go).
	cpWall time.Duration
	// pipe is the CP engine's sealed-generation state (see pipeline.go).
	pipe cpPipeline
	// act is the closed-loop controller's knob surface (see actuator.go).
	act sysActuator
}

// deviceStatser is satisfied by all concrete device models.
type deviceStatser interface{ Stats() device.DiskStats }

// Counters are the cumulative measurement counters; experiments snapshot
// them before and after a run and subtract.
type Counters struct {
	Ops    uint64 // all client operations
	ModOps uint64 // modifying operations
	CPs    uint64

	CPUTime       time.Duration // WAFL code-path CPU (base + metafile + cache)
	CacheCPUTime  time.Duration // the cache-maintenance share of CPUTime
	MetafilePages uint64        // bitmap-metafile pages written back
	TopAABlocks   uint64        // TopAA metafile blocks written
	DeviceBusy    time.Duration // total device time (writes, parity, reads)
	BlocksWritten uint64        // physical blocks allocated and flushed
	BlocksFreed   uint64
}

// Sub returns c - o field-wise.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Ops:           c.Ops - o.Ops,
		ModOps:        c.ModOps - o.ModOps,
		CPs:           c.CPs - o.CPs,
		CPUTime:       c.CPUTime - o.CPUTime,
		CacheCPUTime:  c.CacheCPUTime - o.CacheCPUTime,
		MetafilePages: c.MetafilePages - o.MetafilePages,
		TopAABlocks:   c.TopAABlocks - o.TopAABlocks,
		DeviceBusy:    c.DeviceBusy - o.DeviceBusy,
		BlocksWritten: c.BlocksWritten - o.BlocksWritten,
		BlocksFreed:   c.BlocksFreed - o.BlocksFreed,
	}
}

// CPUPerOp returns the mean WAFL code-path cost per operation.
func (c Counters) CPUPerOp() time.Duration {
	if c.Ops == 0 {
		return 0
	}
	return c.CPUTime / time.Duration(c.Ops)
}

// NewSystem builds a System over a fresh aggregate.
func NewSystem(specs []GroupSpec, vols []VolSpec, tun Tunables, seed int64) *System {
	ag := NewAggregate(specs, tun, seed)
	for _, vs := range vols {
		ag.AddVolume(vs)
	}
	s := &System{Agg: ag, tun: ag.tun}
	s.pipe.gen, s.pipe.open = new(cpGen), new(cpGen)
	s.act.s = s
	s.registerSystemObs()
	if o := &ag.obsOpts; o.Control != nil && o.TSDB != nil {
		// The closed-loop controller needs the System's knob surface, so it
		// arms here rather than in initObs; the control.* counter views
		// registered there read through ag.ctl nil-safely either way.
		ag.ctl = control.Bind(o.Control, o.Name, o.TSDB, &s.act)
		if o.OpTrace != nil {
			// Actuation records link to a representative sampled trace from
			// the triggering signal's volume.
			ag.ctl.SetExemplarSource(o.OpTrace)
		}
	}
	return s
}

// Counters returns the cumulative counters.
func (s *System) Counters() Counters { return s.c }

// Write records a client write of nblocks logical blocks of l starting at
// lba. The blocks become dirty in the current CP; allocation happens when
// the CP commits, as in WAFL. Overwrites of the same block within one CP
// coalesce.
func (s *System) Write(l *LUN, lba uint64, nblocks int) {
	if lba+uint64(nblocks) > l.Blocks() {
		panic(fmt.Sprintf("wafl: write [%d,%d) beyond LUN %q size %d", lba, lba+uint64(nblocks), l.Name, l.Blocks()))
	}
	for b := lba; b < lba+uint64(nblocks); b++ {
		if l.dirty.Add(b) {
			if l.dirty.Len() == 1 {
				s.dirtyLUNs = append(s.dirtyLUNs, l)
			}
			s.pendingBlocks++
		}
	}
	s.c.Ops++
	s.c.ModOps++
	s.c.CPUTime += CPUBasePerOp
	s.opsSinceCP++
	if s.opsSinceCP >= s.tun.CPEveryOps {
		s.CP()
	}
}

// Read services a client read of nblocks logical blocks, charging the
// owning devices. Logically consecutive blocks whose physical VBNs are also
// consecutive coalesce into one device I/O — the read-side payoff of long
// write chains ("writing logically sequential blocks of the file system to
// consecutive blocks of a storage device ... improves subsequent sequential
// read performance because the blocks can be read with a single I/O",
// §2.4). Unwritten blocks read as zeroes and touch no device.
func (s *System) Read(l *LUN, lba uint64, nblocks int) {
	if lba+uint64(nblocks) > l.Blocks() {
		panic(fmt.Sprintf("wafl: read [%d,%d) beyond LUN %q size %d", lba, lba+uint64(nblocks), l.Name, l.Blocks()))
	}
	s.c.Ops++
	s.c.CPUTime += CPUBasePerOp
	busyBefore := s.c.DeviceBusy
	// Op tracing: every read draws its deterministic per-volume sequence
	// number (nil-safe no-op when tracing is off). Device-leaf durations are
	// collected only when tracing is armed — pure observation, no modeled
	// cost.
	sp := l.vol.space
	tid, seq, sampled := sp.tr.Begin(optrace.KindRead)
	tracing := sp.tr != nil
	leaves := s.readLeaves[:0]
	// Gather the op's physical blocks and coalesce per device, exactly as a
	// RAID read engine does: striped sequential data becomes one contiguous
	// DBN chain per device.
	poolRun, runs := s.poolRun[:0], s.readRuns[:0]
	for i := 0; i < nblocks; i++ {
		p := l.Phys(lba + uint64(i))
		if p == block.InvalidVBN {
			continue
		}
		if s.Agg.pool != nil && s.Agg.pool.Contains(p) {
			poolRun = append(poolRun, p)
			continue
		}
		g := s.Agg.groupOf(p)
		d, dbn := g.geo.Locate(p)
		runs = append(runs, readRun{group: g.Index, dev: d, dbn: dbn})
	}
	// Pool blocks: one range GET per contiguous VBN run.
	slices.Sort(poolRun)
	for i := 0; i < len(poolRun); {
		j := i + 1
		for j < len(poolRun) && poolRun[j] == poolRun[j-1]+1 {
			j++
		}
		d := s.Agg.pool.read(uint64(j - i))
		s.c.DeviceBusy += d
		if tracing {
			if len(leaves) == 0 {
				leaves = append(leaves, readLeaf{group: -1})
			}
			leaves[0].busy += d
		}
		i = j
	}
	// Group blocks: sorted by (group, device, DBN), each device's blocks are
	// adjacent and ascending, so one pass splits them into contiguous runs.
	// Per-device charges are independent, so the order across devices is
	// free; within a device it must ascend.
	slices.SortFunc(runs, readRun.compare)
	for i := 0; i < len(runs); {
		j := i + 1
		for j < len(runs) && runs[j].group == runs[i].group && runs[j].dev == runs[i].dev && runs[j].dbn == runs[j-1].dbn+1 {
			j++
		}
		g, start, n := s.Agg.groups[runs[i].group], runs[i].dbn, uint64(j-i)
		var d time.Duration
		if g.azcs {
			diskStart := device.DataToDiskDBN(start)
			diskLen := device.DataToDiskDBN(start+n-1) - diskStart + 1
			d = g.devices[runs[i].dev].Read(diskLen)
		} else {
			d = g.devices[runs[i].dev].Read(n)
		}
		s.c.DeviceBusy += d
		if tracing {
			if k := len(leaves) - 1; k < 0 || leaves[k].group != runs[i].group || leaves[k].dev != runs[i].dev {
				leaves = append(leaves, readLeaf{group: runs[i].group, dev: runs[i].dev})
			}
			leaves[len(leaves)-1].busy += d
		}
		i = j
	}
	s.poolRun, s.readRuns, s.readLeaves = poolRun, runs, leaves
	// Latency SLI: a read op's modeled latency is its base CPU charge plus
	// the device time it just accrued — both worker-invariant. The same two
	// quantities feed the attribution accumulators, so per-stage attributed
	// time reconciles with the histogram total exactly.
	delta := s.c.DeviceBusy - busyBefore
	lat := uint64(CPUBasePerOp + delta)
	sp.lat.Observe(lat)
	sp.attr[optrace.StageBase] += uint64(CPUBasePerOp)
	sp.attr[optrace.StageDevice] += uint64(delta)
	if rec, slow := sp.tr.Decide(sampled, lat); rec {
		// Only a recorded op pays for its labels. The trace's leaf spans sort
		// by label, as they always have.
		spans := make([]optrace.Span, len(leaves))
		for i, lf := range leaves {
			spans[i] = optrace.Span{Name: lf.label(), DurNS: uint64(lf.busy)}
		}
		slices.SortFunc(spans, func(a, b optrace.Span) int { return cmp.Compare(a.Name, b.Name) })
		sp.tr.Add(optrace.Trace{
			ID: tid, Kind: optrace.KindRead.String(), Seq: seq, CP: s.c.CPs,
			AtNS: int64(s.c.DeviceBusy + s.c.CPUTime), LatNS: lat, Slow: slow,
			Spans: []optrace.Span{
				{Name: optrace.StageBase.String(), DurNS: uint64(CPUBasePerOp)},
				{Name: optrace.StageDevice.String(), DurNS: uint64(delta), Children: spans},
			},
		})
	}
}

// readRun is one physical block of a read, located on its data device.
type readRun struct {
	group, dev int
	dbn        uint64
}

func (a readRun) compare(b readRun) int {
	return cmp.Or(cmp.Compare(a.group, b.group), cmp.Compare(a.dev, b.dev), cmp.Compare(a.dbn, b.dbn))
}

// readLeaf accumulates the device time one read spent on one data device
// (group -1: the object pool), for the op trace's leaf spans.
type readLeaf struct {
	group, dev int
	busy       time.Duration
}

func (lf readLeaf) label() string {
	if lf.group < 0 {
		return "pool"
	}
	return fmt.Sprintf("rg%d.dev%d", lf.group, lf.dev)
}

// CPFlushWall returns the cumulative modeled wall-clock of CP flush phases:
// each CP contributes the makespan of its per-group (and pool) flush times
// over Tunables.Workers rather than their serial sum. Compare runs with
// Workers=1 vs Workers=N to see the concurrent-flush payoff.
func (s *System) CPFlushWall() time.Duration { return s.cpWall }

// virtScanBlocks sums the virtual allocation cursors' cumulative sweep
// lengths across volumes.
func (s *System) virtScanBlocks() uint64 {
	var n uint64
	for _, v := range s.Agg.vols {
		n += v.space.scannedBlocks
	}
	return n
}

// PunchHoles deallocates every written LUN block whose LBA the predicate
// selects, freeing both its virtual and physical VBNs (the effect of a SCSI
// UNMAP or of deleting file ranges). It must be called between CPs — with
// dirty buffers pending or a pipelined generation still flushing it returns
// ErrCPInProgress; the score updates batch into the next CP as usual.
// Returns the number of blocks freed.
func (s *System) PunchHoles(l *LUN, select_ func(lba uint64) bool) (int, error) {
	if !s.atBoundary() {
		return 0, ErrCPInProgress
	}
	freed := 0
	for lba := range l.blocks {
		p := l.blocks[lba]
		if p.phys == block.InvalidVBN || !select_(uint64(lba)) {
			continue
		}
		if s.dropActive(l, uint64(lba), p) {
			freed++
		}
		l.blocks[lba] = blockPtr{virt: block.InvalidVBN, phys: block.InvalidVBN}
	}
	return freed, nil
}

// cacheOps sums the cumulative AA-cache maintenance operations across all
// caches.
func (s *System) cacheOps() uint64 {
	var n uint64
	for _, g := range s.Agg.groups {
		n += g.cacheOps
	}
	for _, sp := range s.Agg.agnosticSpaces() {
		n += sp.cacheOps
	}
	return n
}

// DeviceBusyTimes returns each data device's cumulative busy time, grouped
// by RAID group — the per-device service demands the MVA model consumes.
func (s *System) DeviceBusyTimes() [][]time.Duration {
	out := make([][]time.Duration, len(s.Agg.groups))
	for gi, g := range s.Agg.groups {
		times := make([]time.Duration, 0, len(g.devices)+1)
		for _, d := range g.devices {
			if st, ok := d.(deviceStatser); ok {
				times = append(times, st.Stats().BusyTime)
			}
		}
		if st, ok := g.parity.(deviceStatser); ok {
			times = append(times, st.Stats().BusyTime)
		}
		out[gi] = times
	}
	return out
}

// WriteAmplification averages FTL write amplification over all SSD groups
// (0 if the aggregate has none).
func (s *System) WriteAmplification() float64 {
	var sum float64
	var n int
	for _, g := range s.Agg.groups {
		if wa := g.WriteAmplification(); wa > 0 {
			sum += wa
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ResetMetrics zeroes the measurement counters of every group and volume
// allocator (the cumulative Counters are unaffected; snapshot those with
// Counters and subtract).
func (s *System) ResetMetrics() {
	for _, g := range s.Agg.groups {
		g.ResetMetrics()
	}
	for _, v := range s.Agg.vols {
		v.ResetMetrics()
	}
}

// FTLTotals sums FTL accounting across every SSD data device in the
// aggregate, so experiments can compute write amplification over a
// measurement window by delta.
func (s *System) FTLTotals() device.FTLStats {
	var t device.FTLStats
	for _, g := range s.Agg.groups {
		gt := g.FTLTotals()
		t.HostWrites += gt.HostWrites
		t.NANDWrites += gt.NANDWrites
		t.Relocated += gt.Relocated
		t.Erases += gt.Erases
		t.Trims += gt.Trims
	}
	return t
}
