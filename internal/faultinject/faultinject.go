// Package faultinject provides the deterministic fault-injection harness
// behind the crash-consistency work: seeded, schedule-driven fault plans
// that crash a consistency point at a named phase, tear or drop TopAA
// metafile writes, rot or unplug individual protection chunks, and inject
// device-level read errors.
//
// The crash model matches the simulator's persistence semantics. Bitmap
// metafiles are shadow-paged and commit atomically with the CP, so the
// in-memory bitmap is always the post-CP ground truth; what a dirty
// failover can lose is the TopAA metafile writes issued during the crashed
// CP. A plan therefore arms a crash at one of the named CP phases: every
// metafile save issued after the crash point is dropped (stale generation on
// the next mount), and under a torn-write plan the first save at the crash
// point lands partially (mixed generations). Media-fault kinds additionally
// damage persisted blocks after the crash, exercising the RAID
// chunk-reconstruction path and the Iron-style bitmap-recompute fallback.
//
// Everything is driven by a seeded *rand.Rand owned by the Injector, so a
// (plan, workload) pair replays bit-identically at any worker width.
package faultinject

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"waflfs/internal/obs/rule"
)

// Named CP phases, in execution order at depth 1. System.CP (the first two)
// and the flush stage, Aggregate.commitSealed (the rest), call
// Injector.EnterPhase with each in turn; a plan's CrashPhase names one of
// them.
const (
	PhaseAlloc       = "alloc"        // phase 1: write allocation + COW frees
	PhaseDelayedFree = "delayed_free" // phase 1.5: delayed-free reclaim
	PhaseFlush       = "flush"        // per-group tetris flush + delta fold
	PhaseTopAAGroups = "topaa_groups" // RAID-aware TopAA block saves
	PhasePool        = "pool"         // object-pool flush + TopAA save
	PhaseBitmapAgg   = "bitmap_agg"   // aggregate bitmap-metafile write-back
	PhaseVolFold     = "vol_fold"     // per-volume delta fold + bitmap flush
	PhaseTopAAVols   = "topaa_vols"   // per-volume HBPS TopAA saves
	PhaseCommit      = "commit"       // CP superblock commit (crash = clean CP)
)

// Depth-2 phases (Tunables.Pipeline). Under overlapped checkpoints a
// boundary allocates the open generation while the sealed one flushes, so
// the overlap window has its own crash points: a crash during overlap_alloc
// fires before the in-flight generation commits, one during overlap_flush
// fires as its reclaim starts, ahead of the flush-stage phases above. A
// depth-2 boundary with nothing in flight enters alloc instead, and never
// delayed_free. Kept out of CPPhases so the depth-1 crash matrix — and its
// pinned reference bands — are unchanged.
const (
	PhaseOverlapAlloc = "overlap_alloc" // open-gen allocation, sealed gen in flight
	PhaseOverlapFlush = "overlap_flush" // sealed-gen flush, overlapping the alloc
)

// OverlapPhases returns the pipelined-CP crash points — the rows of the
// pipeline crash-matrix experiment.
func OverlapPhases() []string {
	return []string{PhaseOverlapAlloc, PhaseOverlapFlush}
}

// CPPhases returns the named crash points in execution order — the rows of
// the crash-matrix experiment.
func CPPhases() []string {
	return []string{
		PhaseAlloc, PhaseDelayedFree, PhaseFlush, PhaseTopAAGroups,
		PhasePool, PhaseBitmapAgg, PhaseVolFold, PhaseTopAAVols, PhaseCommit,
	}
}

// Kind selects the media fault a plan applies on top of the crash.
type Kind int

const (
	// FaultNone is a pure crash: saves after the crash point are dropped,
	// leaving stale-generation metafiles, but nothing is damaged.
	FaultNone Kind = iota
	// FaultTorn makes the first save at the crash point land partially:
	// some chunks carry the new generation, the rest keep the old image.
	FaultTorn
	// FaultBitRot flips a byte in one chunk of a persisted metafile block.
	// Exactly one chunk is bad and the parity chunk is intact, so the load
	// path RAID-reconstructs it.
	FaultBitRot
	// FaultBitRotMulti rots two chunks of the same block — beyond what one
	// parity chunk can rebuild, forcing the bitmap-walk fallback.
	FaultBitRotMulti
	// FaultReadErr marks one chunk unreadable (a reported media error).
	// Reconstructable, like FaultBitRot.
	FaultReadErr
	// FaultReadErrHard marks a chunk and its block's parity chunk
	// unreadable, so reconstruction is impossible and mount falls back.
	FaultReadErrHard
)

// Kinds returns every fault kind — the columns of the crash matrix.
func Kinds() []Kind {
	return []Kind{FaultNone, FaultTorn, FaultBitRot, FaultBitRotMulti, FaultReadErr, FaultReadErrHard}
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultTorn:
		return "torn"
	case FaultBitRot:
		return "bitrot"
	case FaultBitRotMulti:
		return "bitrot-multi"
	case FaultReadErr:
		return "readerr"
	case FaultReadErrHard:
		return "readerr-hard"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return FaultNone, fmt.Errorf("faultinject: unknown fault kind %q", s)
}

// Plan is one deterministic fault schedule.
type Plan struct {
	// Seed drives every random choice the injector makes (torn-chunk
	// counts, damage placement).
	Seed int64
	// CrashPhase names the CP phase at which the crash fires; "" disables
	// the crash entirely.
	CrashPhase string
	// CrashCP selects which CP crashes, counted from 1; 0 crashes the
	// first CP that reaches CrashPhase.
	CrashCP int
	// Fault is the media fault applied with the crash.
	Fault Kind
	// Target names the metafile key damaged by the media-fault kinds; ""
	// lets the injector pick one (seeded) from the keys offered to
	// ApplyDamage.
	Target string
	// DeviceReadErrEvery injects a recoverable media error on every Nth
	// read I/O of each data device (0 = off). Each error charges
	// DeviceReadPenalty of extra busy time — the cost of RAID rebuilding
	// the sector from the surviving devices.
	DeviceReadErrEvery uint64
	// DeviceReadPenalty overrides the per-error reconstruction penalty
	// (0 = the device package default).
	DeviceReadPenalty time.Duration
}

// ParsePlan parses the waflbench -faults spec, one clause of the shared
// grammar (internal/obs/rule): comma-separated key=value fields, e.g.
// "phase=topaa_groups,fault=torn,cp=2,seed=7,target=rg0,devreaderr=100".
// Every key is optional.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	err := rule.Fields(spec, func(key, val string) (err error) {
		switch key {
		case "phase":
			if !slices.Contains(append(CPPhases(), OverlapPhases()...), val) {
				err = fmt.Errorf("unknown phase (have %v and %v)", CPPhases(), OverlapPhases())
			}
			p.CrashPhase = val
		case "fault":
			p.Fault, err = ParseKind(val)
		case "cp":
			// A negative ordinal matches no CP: the plan would arm a crash
			// that never fires and the run would "recover" from nothing.
			if p.CrashCP, err = strconv.Atoi(val); err == nil && p.CrashCP < 0 {
				err = fmt.Errorf("cp must be >= 0")
			}
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "target":
			p.Target = val
		case "devreaderr":
			p.DeviceReadErrEvery, err = strconv.ParseUint(val, 10, 64)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		return err
	})
	if err != nil {
		return Plan{}, fmt.Errorf("faultinject: plan: %w", err)
	}
	return p, nil
}

// String renders the plan in the canonical spec form: ParsePlan(p.String())
// returns p for every plan ParsePlan produced. DeviceReadPenalty has no spec
// key and is not rendered.
func (p Plan) String() string {
	var b strings.Builder
	if p.CrashPhase != "" {
		fmt.Fprintf(&b, "phase=%s,", p.CrashPhase)
	}
	fmt.Fprintf(&b, "fault=%s,cp=%d,seed=%d", p.Fault, p.CrashCP, p.Seed)
	if p.Target != "" {
		fmt.Fprintf(&b, ",target=%s", p.Target)
	}
	if p.DeviceReadErrEvery != 0 {
		fmt.Fprintf(&b, ",devreaderr=%d", p.DeviceReadErrEvery)
	}
	return b.String()
}

// SaveDecision is the injector's verdict on one metafile save.
type SaveDecision struct {
	// Drop means the write never reached media (issued after the crash).
	Drop bool
	// TornChunks, when > 0, means only the first TornChunks protection
	// chunks of the write landed; the rest keep the previous image.
	TornChunks int
}

// Injector executes a Plan against a running system. All methods are safe
// on a nil receiver (no faults) and under concurrent use; the CP pipeline
// calls EnterPhase/OnSave serially, but mount rebuilds run on the work
// pool.
type Injector struct {
	mu       sync.Mutex
	plan     Plan
	rng      *rand.Rand
	cp       int
	crashed  bool
	tornUsed bool
	crashes  uint64
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// BeginCP advances the CP ordinal; System.CP calls it once per CP.
func (in *Injector) BeginCP() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.cp++
	in.mu.Unlock()
}

// EnterPhase marks the CP pipeline reaching a named phase; if the plan's
// crash point matches (phase and CP ordinal), the crash fires: every
// subsequent save is dropped (or torn, for the first one under FaultTorn)
// until Recover.
func (in *Injector) EnterPhase(name string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed || in.plan.CrashPhase != name {
		return
	}
	if in.plan.CrashCP != 0 && in.cp != in.plan.CrashCP {
		return
	}
	in.crashed = true
	in.crashes++
}

// Crashed reports whether the simulated controller is down.
func (in *Injector) Crashed() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Crashes returns how many times the plan's crash has fired.
func (in *Injector) Crashes() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashes
}

// Recover clears the crashed state — the reboot that precedes a Remount.
// The plan stays armed for its CP ordinal, so a recovered system does not
// re-crash unless CrashCP is 0 (crash every time the phase is reached).
func (in *Injector) Recover() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.crashed = false
	in.mu.Unlock()
}

// OnSave decides the fate of one metafile save of totalChunks protection
// chunks. Before the crash fires every save lands whole; after it, the
// first save is torn under FaultTorn and everything else is dropped.
func (in *Injector) OnSave(key string, totalChunks int) SaveDecision {
	if in == nil {
		return SaveDecision{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	_ = key
	if !in.crashed {
		return SaveDecision{}
	}
	if in.plan.Fault == FaultTorn && !in.tornUsed && totalChunks > 1 {
		in.tornUsed = true
		return SaveDecision{TornChunks: 1 + in.rng.Intn(totalChunks-1)}
	}
	return SaveDecision{Drop: true}
}

// DamageSurface is the store-side interface ApplyDamage drives; topaa.Store
// implements it. Chunk coordinates are (4KiB block index, chunk index
// within the block).
type DamageSurface interface {
	// BlockCount returns the number of 4KiB blocks persisted under name
	// (0 when the metafile does not exist).
	BlockCount(name string) int
	// CorruptChunk flips a byte within one data chunk, leaving parity
	// intact (RAID-reconstructable).
	CorruptChunk(name string, blk, chunk int) error
	// MarkChunkUnreadable makes one data chunk return a media error.
	MarkChunkUnreadable(name string, blk, chunk int) error
	// MarkParityUnreadable makes a block's parity chunk return a media
	// error, defeating reconstruction of any other damage in the block.
	MarkParityUnreadable(name string, blk int) error
}

// DamageReport describes the media damage ApplyDamage placed.
type DamageReport struct {
	Kind   Kind
	Target string
	Block  int
	Chunks []int // damaged data-chunk indexes
	Parity bool  // parity chunk also taken out
}

// String implements fmt.Stringer.
func (r DamageReport) String() string {
	if r.Target == "" {
		return "no damage"
	}
	return fmt.Sprintf("%s on %q block %d chunks %v parity-lost=%v",
		r.Kind, r.Target, r.Block, r.Chunks, r.Parity)
}

// ApplyDamage places the plan's media fault on the store: the crash-only
// kinds do nothing; the rot/read-error kinds damage one deterministic
// (seeded) location in the target metafile. keys must be the candidate
// metafile names in a deterministic order; the plan's Target, when set,
// overrides the seeded pick.
func (in *Injector) ApplyDamage(s DamageSurface, keys []string, chunksPerBlock int) (DamageReport, error) {
	if in == nil {
		return DamageReport{}, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	rep := DamageReport{Kind: in.plan.Fault}
	switch in.plan.Fault {
	case FaultBitRot, FaultBitRotMulti, FaultReadErr, FaultReadErrHard:
	default:
		return rep, nil
	}
	if len(keys) == 0 {
		return rep, fmt.Errorf("faultinject: no metafile keys to damage")
	}
	target := in.plan.Target
	if target == "" {
		target = keys[in.rng.Intn(len(keys))]
	}
	nblocks := s.BlockCount(target)
	if nblocks == 0 {
		return rep, fmt.Errorf("faultinject: damage target %q has no metafile", target)
	}
	blk := in.rng.Intn(nblocks)
	chunk := in.rng.Intn(chunksPerBlock)
	rep.Target, rep.Block = target, blk

	fail := func(err error) (DamageReport, error) { return rep, err }
	switch in.plan.Fault {
	case FaultBitRot:
		rep.Chunks = []int{chunk}
		if err := s.CorruptChunk(target, blk, chunk); err != nil {
			return fail(err)
		}
	case FaultBitRotMulti:
		second := (chunk + 1 + in.rng.Intn(chunksPerBlock-1)) % chunksPerBlock
		rep.Chunks = []int{chunk, second}
		if err := s.CorruptChunk(target, blk, chunk); err != nil {
			return fail(err)
		}
		if err := s.CorruptChunk(target, blk, second); err != nil {
			return fail(err)
		}
	case FaultReadErr:
		rep.Chunks = []int{chunk}
		if err := s.MarkChunkUnreadable(target, blk, chunk); err != nil {
			return fail(err)
		}
	case FaultReadErrHard:
		rep.Chunks = []int{chunk}
		rep.Parity = true
		if err := s.MarkChunkUnreadable(target, blk, chunk); err != nil {
			return fail(err)
		}
		if err := s.MarkParityUnreadable(target, blk); err != nil {
			return fail(err)
		}
	}
	return rep, nil
}
