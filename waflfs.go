package waflfs

import (
	"waflfs/internal/aa"
	"waflfs/internal/bitmap"
	"waflfs/internal/block"
	"waflfs/internal/device"
	"waflfs/internal/experiments"
	"waflfs/internal/hbps"
	"waflfs/internal/heapcache"
	"waflfs/internal/sim"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// Core file-system types (see internal/wafl).
type (
	// System is the client-facing file system: LUN reads/writes buffered
	// into consistency points over an aggregate of RAID groups.
	System = wafl.System
	// LUN is a block device exported from a FlexVol.
	LUN = wafl.LUN
	// GroupSpec configures a RAID group.
	GroupSpec = wafl.GroupSpec
	// VolSpec configures a FlexVol.
	VolSpec = wafl.VolSpec
	// Tunables holds the allocator policy switches.
	Tunables = wafl.Tunables
	// PoolSpec configures an object-store pool (FabricPool).
	PoolSpec = wafl.PoolSpec
)

// Typed failures of System operations (see internal/wafl): test with
// errors.Is.
var (
	// ErrCPInProgress: a boundary-only operation (snapshot create/delete/
	// restore, hole punch) was attempted with writes pending or a pipelined
	// generation in flight; CP (and Drain) and retry.
	ErrCPInProgress = wafl.ErrCPInProgress
	// ErrSnapshotExists: CreateSnapshot of a name the LUN already has.
	ErrSnapshotExists = wafl.ErrSnapshotExists
	// ErrNoSnapshot: DeleteSnapshot or RestoreSnapshot of an unknown name.
	ErrNoSnapshot = wafl.ErrNoSnapshot
)

// NewSystem builds a System over a fresh aggregate; seed fixes all
// randomized decisions for reproducibility.
func NewSystem(specs []GroupSpec, vols []VolSpec, tun Tunables, seed int64) *System {
	return wafl.NewSystem(specs, vols, tun, seed)
}

// DefaultTunables returns the standard configuration with both AA caches
// enabled.
func DefaultTunables() Tunables { return wafl.DefaultTunables() }

// Media types for GroupSpec (AA sizing and device models, §3.2).
type Media = aa.Media

// Media values.
const (
	MediaHDD = aa.MediaHDD
	MediaSSD = aa.MediaSSD
	MediaSMR = aa.MediaSMR
)

// Block-layer types and constants (see internal/block).
type (
	// VBN is a volume block number.
	VBN = block.VBN
	// Range is a half-open VBN interval.
	Range = block.Range
)

// Block-layer constants.
const (
	// BlockSize is the WAFL block size (4KiB).
	BlockSize = block.BlockSize
	// RAIDAgnosticAABlocks is the default RAID-agnostic AA size (32k
	// blocks, one bitmap-metafile block).
	RAIDAgnosticAABlocks = aa.RAIDAgnosticBlocks
)

// Data-structure types, exported for direct library use.
type (
	// HBPS is the paper's histogram-based partial sort (§3.3.2).
	HBPS = hbps.HBPS
	// HBPSConfig parameterizes an HBPS instance.
	HBPSConfig = hbps.Config
	// HeapCache is the RAID-aware AA cache: an indexed max-heap (§3.3.1).
	HeapCache = heapcache.Cache
	// Bitmap is a WAFL-style bitmap metafile.
	Bitmap = bitmap.Bitmap
	// AAID names an allocation area within one VBN space.
	AAID = aa.ID
)

// NewHBPS creates an HBPS with the given geometry.
func NewHBPS(cfg HBPSConfig) *HBPS { return hbps.New(cfg) }

// DefaultHBPSConfig returns the RAID-agnostic AA-cache geometry: 32 bins of
// 1k over scores up to 32k, with a 1000-entry list — exactly two 4KiB pages.
func DefaultHBPSConfig() HBPSConfig { return hbps.DefaultConfig() }

// NewHeapCacheFromScores heapifies a full score table in O(n).
func NewHeapCacheFromScores(scores []uint64) *HeapCache {
	return heapcache.NewFromScores(scores)
}

// NewBitmap creates a bitmap metafile tracking n blocks, all free.
func NewBitmap(n uint64) *Bitmap { return bitmap.New(n) }

// Device models (see internal/device).
type (
	// SSD is the flash device model (FTL + timing).
	SSD = device.SSD
	// SSDConfig configures an SSD model.
	SSDConfig = device.SSDConfig
	// HDD is the hard-drive cost model.
	HDD = device.HDD
	// SMR is the drive-managed shingled-drive model.
	SMR = device.SMR
)

// NewSSD builds an SSD model.
func NewSSD(cfg SSDConfig) *SSD { return device.NewSSD(cfg) }

// DefaultSSDConfig models an enterprise SSD of the given logical capacity.
func DefaultSSDConfig(logicalBlocks uint64) SSDConfig {
	return device.DefaultSSDConfig(logicalBlocks)
}

// NewSMR builds an SMR drive model.
func NewSMR(blocks, zoneBlocks uint64) *SMR { return device.NewSMR(blocks, zoneBlocks) }

// DefaultHDD models a 7.2k-RPM SAS drive.
func DefaultHDD() *HDD { return device.DefaultHDD() }

// Workloads (see internal/workload).
type (
	// OLTP is the random read/write database-style mix of §4.2.
	OLTP = workload.OLTP
	// HotCold is a skewed overwrite generator (80/20 by default).
	HotCold = workload.HotCold
)

// DefaultHotCold returns the classic 80/20 skewed overwrite mix.
func DefaultHotCold() HotCold { return workload.DefaultHotCold() }

// Workload helpers re-exported for the Examples and downstream users.
var (
	// RandomOverwrite issues random LUN overwrites (worst-case COW
	// fragmentation).
	RandomOverwrite = workload.RandomOverwrite
	// SequentialFill writes a LUN start to end.
	SequentialFill = workload.SequentialFill
	// Age fills and fragments a file system ahead of measurement.
	Age = workload.Age
)

// DefaultOLTP returns a 2:1 read/write 4KiB mix.
func DefaultOLTP() OLTP { return workload.DefaultOLTP() }

// Queueing model (see internal/sim).
type (
	// QueueCenter is one service center of the closed queueing network.
	QueueCenter = sim.Center
	// QueueResult is the MVA solution for one client population.
	QueueResult = sim.Result
)

// SolveQueue runs exact MVA for the centers, think time, and client count.
var SolveQueue = sim.Solve

// Experiments: the paper's evaluation harness (see internal/experiments).
type (
	// ExperimentConfig controls experiment scale and the client model.
	ExperimentConfig = experiments.Config
	// Experiment is one runnable reproduction target.
	Experiment = experiments.Experiment
)

// DefaultExperimentConfig returns the full-scale experiment configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// Experiments returns every reproduction driver: the figures in paper order,
// then the crash matrices, the gated microbenchmarks, storm and ablations.
func Experiments() []Experiment { return experiments.All() }

// LookupExperiment finds an experiment by name ("fig6" .. "fig10",
// "crashmatrix", "allocbench", ...).
func LookupExperiment(name string) (Experiment, error) { return experiments.Lookup(name) }
