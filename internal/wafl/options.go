// Package wafl is the core of the reproduction: the write allocator and the
// file-system layering it serves. It ties together the substrates — bitmap
// metafiles, RAID geometry, device models, allocation-area topologies, the
// two AA cache types, and the TopAA metafile — into an Aggregate hosting
// FlexVol volumes, exactly as §2 and §3 of the paper describe.
//
// The package is a simulation of the allocation paths, not a data path: no
// user data is stored, but every allocation, free, consistency point,
// tetris, metafile update, and device cost is modeled and accounted, which
// is what the paper's evaluation measures.
package wafl

import (
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/faultinject"
)

// GroupSpec describes one RAID group of an aggregate.
type GroupSpec struct {
	// DataDevices and ParityDevices define the RAID geometry.
	DataDevices   int
	ParityDevices int
	// BlocksPerDevice is the per-device capacity in 4KiB blocks.
	BlocksPerDevice uint64
	// Media selects the device model and default AA sizing.
	Media aa.Media
	// StripesPerAA overrides the media-derived AA size when non-zero.
	StripesPerAA uint64
	// EraseBlockBlocks is the SSD erase-unit size (MediaSSD only); 0 means
	// the device-model default.
	EraseBlockBlocks uint64
	// ZoneBlocks is the shingle-zone size (MediaSMR only); 0 means the
	// default of 16384 blocks (64MiB).
	ZoneBlocks uint64
	// AZCS enables advanced zone checksums on this group's devices.
	AZCS bool
	// Overprovision overrides the SSD overprovisioning fraction when > 0.
	Overprovision float64
}

// VolSpec describes one FlexVol volume.
type VolSpec struct {
	// Name identifies the volume (used as its TopAA metafile key).
	Name string
	// Blocks is the virtual VBN space size.
	Blocks uint64
}

// The CPU cost model is one calibration, not a configuration: every
// experiment, test and workload runs on these four values.
const (
	// CPUBasePerOp is the fixed WAFL code-path cost per client operation.
	CPUBasePerOp = 210 * time.Microsecond
	// CPUPerMetafilePage is the processing cost of updating and writing
	// back one dirty bitmap-metafile page at a CP; fewer dirtied pages per
	// operation is the benefit of colocated virtual VBNs (§2.5).
	CPUPerMetafilePage = 40 * time.Microsecond
	// CPUPerCacheOp is the cost of one AA-cache maintenance operation
	// (heap update, HBPS update/pop); the paper measures cache maintenance
	// at ~0.002% of cycles (§4.1.2).
	CPUPerCacheOp = 120 * time.Nanosecond
	// CPUPerVirtAllocScan is the per-position cost of the virtual
	// allocation cursor's bitmap sweep. Allocating from an AA with free
	// fraction f sweeps 1/f positions per block, so picking emptier
	// virtual AAs directly reduces this term — the computational
	// amortization §4.1.2 measures as 309µs/op vs 293µs/op.
	CPUPerVirtAllocScan = 30 * time.Microsecond
)

// Tunables collects the allocator policy switches. Zero values select the
// defaults.
type Tunables struct {
	// AggregateCacheEnabled enables AA caches for physical VBN selection.
	// When false the allocator picks uniformly random AAs with free space,
	// the paper's baseline ("randomly selected AAs", §4.1.1).
	AggregateCacheEnabled bool
	// VolCacheEnabled likewise for FlexVol virtual VBN selection (§4.1.2).
	VolCacheEnabled bool
	// MinAAScoreFraction: a RAID group whose best AA scores below this
	// fraction of a full AA is skipped by the allocator while other groups
	// remain eligible ("when to stop ... writing to that RAID group",
	// §3.3.1). Zero disables the bias.
	MinAAScoreFraction float64
	// DelayedVirtFrees queues virtual-VBN frees per AA, scored by an HBPS
	// (the "delayed-free scores" use of §3.3.2), and applies them at CP in
	// most-pending-first order under DelayedFreeBudgetPerCP.
	DelayedVirtFrees bool
	// DelayedFreeBudgetPerCP caps blocks reclaimed per CP (0 = unlimited).
	DelayedFreeBudgetPerCP int

	// FlashPool directs new writes to SSD RAID groups first (the hot
	// tier of a mixed SSD+HDD aggregate, §2.1), spilling to other media
	// only when flash is short on space. Use System.Demote to move cold
	// data to the HDD groups.
	FlashPool bool

	// TrimOnFree forwards block frees to SSD FTLs as deallocations.
	// Disabled by default: the paper's write-amplification argument
	// depends on freed-but-not-trimmed blocks looking live to the FTL.
	TrimOnFree bool

	// CPEveryOps triggers a consistency point after this many modifying
	// operations. CPs in WAFL are triggered by timers and dirty-buffer
	// thresholds; an op-count trigger is equivalent for steady workloads.
	CPEveryOps int

	// Workers bounds the fan-out of the deterministic work pool used for CP
	// flushes, cache rebuilds, and mount-time bitmap walks: 0 selects
	// min(GOMAXPROCS, 8), 1 forces serial execution. Every measured counter
	// is identical for every value (see internal/parallel); only the modeled
	// CPStats.FlushWall shrinks as workers increase.
	Workers int

	// AllocShards is the depth of the staging queue every cached space
	// picks through (internal/shardq, allocctx.go). 0 or 1 is depth 0: a
	// pick is the heap's or HBPS's own PopBest and nothing is ever staged
	// (TestCPEngineGolden holds 1 to the digest recorded for 0). Above 1 the
	// hot path is striped into that many per-worker shard queues fed from
	// the shared structure in bounded batches. Score deltas go to the
	// space's one delta ledger at every depth.
	AllocShards int
	// AllocBatch bounds each shard queue and standby batch; 0 selects 8.
	// Larger batches stage less often but widen the near-best window. The
	// alloc_batch control knob changes it live; inert at depth 0.
	AllocBatch int

	// Pipeline overlaps consecutive consistency points the way production
	// WAFL does: writes allocate into CP n+1 while CP n flushes, so the
	// modeled sustained-write wall per generation is max(alloc, flush)
	// instead of their sum. It is the depth of the one CP engine
	// (pipeline.go, DESIGN.md §12): false is depth 1, the stop-the-world CP
	// that seals and flushes what it just allocated; true is depth 2, where
	// a boundary flushes the generation sealed one boundary earlier and
	// delayed frees carry a second, sealed queue so frees landing mid-flush
	// credit the correct CP.
	Pipeline bool

	// Obs configures the observability layer (metric export and the
	// bounded per-CP sinks). Nil keeps every sink off; the hot paths then pay
	// only nil-checks. See obs.go.
	Obs *ObsOptions

	// Faults arms a deterministic fault-injection plan: CP crash-points,
	// torn/stale/damaged TopAA metafiles, and device read errors (see
	// internal/faultinject). Nil disables injection entirely — the CP
	// pipeline then pays only nil-receiver calls.
	Faults *faultinject.Plan
}

// Defaults fills zero fields with production-flavoured values.
func (t Tunables) Defaults() Tunables {
	if t.CPEveryOps == 0 {
		t.CPEveryOps = 4096
	}
	if t.MinAAScoreFraction < 0 {
		t.MinAAScoreFraction = 0
	}
	return t
}

// DefaultTunables returns the standard configuration with both caches on.
func DefaultTunables() Tunables {
	return Tunables{AggregateCacheEnabled: true, VolCacheEnabled: true}.Defaults()
}
