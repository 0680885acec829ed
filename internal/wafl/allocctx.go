package wafl

import (
	"fmt"
	"time"

	"waflfs/internal/parallel"
	"waflfs/internal/shardq"
)

// Allocation contexts: what one space's pick path charges.
//
// Every cached space picks through one staging queue (internal/shardq,
// DESIGN.md §9) whose depth is Tunables.AllocShards: at depth 0 (AllocShards
// ≤ 1) a pick is the cache's own PopBest — the paper's direct pick. With
// AllocShards > 1 picks come out of per-shard batches staged off the shared
// heap/HBPS. The shard for each pick is seq % shards — a fixed assignment
// keyed by (space, pick sequence), independent of the Workers knob — so the
// pick stream and every staged batch are bit-identical at any worker width.
// Score deltas do not depend on the shard: at every depth they are sums in
// the space's one delta ledger, folded into the cache when the CP commits.
//
// Contention is modeled, not measured: picks execute serially on the CP
// thread (like FlushWall's flush tasks), and each shard's pick time
// accrues to a per-shard busy vector. AllocPickWall schedules those
// vectors over W workers via parallel.Makespan — shard-local picks
// parallelize, synchronous stall refills serialize, and pipelined staging
// is hidden behind ongoing picks. Depth 0 charges all picks to a single
// vector, which is what makes the shared-vs-striped walls comparable. One
// pick's critical section and one staging move both cost CPUPerCacheOp, the
// same unit the cache-maintenance accounting uses.
const defaultAllocBatch = 8

// allocBatch resolves the AllocBatch knob.
func (t Tunables) allocBatch() int {
	if t.AllocBatch <= 0 {
		return defaultAllocBatch
	}
	return t.AllocBatch
}

type allocState struct {
	shards int
	seq    uint64 // picks issued; shard = seq % shards

	pickBusy   []time.Duration // modeled shard-local pick time
	refillBusy time.Duration   // pipelined staging (hidden behind picks)
	stallBusy  time.Duration   // synchronous refills (serialize)

	picks      uint64 // all picks through this state
	localPicks uint64 // picks served shard-locally (no shared touch)
	stalls     uint64 // synchronous refills on an empty shard
	staged     uint64 // entries moved shared→shard by pipelined staging
}

// newAllocState sizes the per-shard busy vectors (one at depth 0).
func newAllocState(tun Tunables) *allocState {
	n := max(tun.AllocShards, 1)
	return &allocState{shards: n, pickBusy: make([]time.Duration, n)}
}

// queueDepth is the depth of the space's staging queue: the stripe width
// when striped and cached, else 0 (the direct pick).
func (as *allocState) queueDepth(cached bool) int {
	if cached && as.shards > 1 {
		return as.shards
	}
	return 0
}

// nextShard returns the fixed shard for the next pick and advances the
// sequence. Keyed by pick ordinal only, so any worker width replays the
// same assignment.
func (as *allocState) nextShard() int {
	s := int(as.seq % uint64(as.shards))
	as.seq++
	return s
}

// notePop charges what one Pop observed: the synchronous refills it waited
// for — a stall and one op per staging round plus one per entry moved either
// way, all zero at depth 0 — and, when served, the pick's own critical
// section on its shard's vector.
func (as *allocState) notePop(shard int, p shardq.Popped, served bool) {
	as.stalls += uint64(p.Stalls)
	as.stallBusy += time.Duration(p.Stalls+p.Staged+p.Flushed) * CPUPerCacheOp
	if served {
		as.picks++
		if p.Held && !p.Refilled {
			as.localPicks++
		}
		as.pickBusy[shard] += CPUPerCacheOp
	}
}

// stageAhead is the pipelined refill after a pick: a shard running low
// stages its next batch now, so the eventual drain swaps a ready batch in
// instead of stalling. The time is charged as hidden behind ongoing picks;
// the caller charges the returned entry count as cache ops.
func stageAhead[E any](as *allocState, q *shardq.Queue[E], shard int) uint64 {
	if !q.Low(shard) {
		return 0
	}
	n := q.Stage(shard)
	as.staged += uint64(n)
	as.refillBusy += time.Duration(n) * CPUPerCacheOp
	return uint64(n)
}

// resetCounters zeroes the profile counters and busy vectors (ResetMetrics:
// the boundary between an experiment's aging and measurement phases).
func (as *allocState) resetCounters() {
	for i := range as.pickBusy {
		as.pickBusy[i] = 0
	}
	as.refillBusy, as.stallBusy = 0, 0
	as.picks, as.localPicks, as.stalls, as.staged = 0, 0, 0, 0
}

// busyTotal sums the per-shard pick vectors (the serial pick time).
func (as *allocState) busyTotal() time.Duration {
	var t time.Duration
	for _, d := range as.pickBusy {
		t += d
	}
	return t
}

// AllocProfile is one space's striped-allocator profile.
type AllocProfile struct {
	// Space names the profiled space ("rg<N>", "vol.<name>", "pool").
	Space string
	// Shards is the stripe width (1 = the direct pick, queue depth 0).
	Shards int
	// Picks counts all picks; LocalPicks the shard-local subset.
	Picks, LocalPicks uint64
	// Stalls counts synchronous refills; Staged the pipelined entries.
	Stalls, Staged uint64
	// ShardBusy is the per-shard modeled pick time (len == Shards).
	ShardBusy []time.Duration
	// RefillBusy is pipelined staging time (hidden behind picks);
	// StallBusy is synchronous refill time (serializes).
	RefillBusy, StallBusy time.Duration
}

// AllocProfiles returns every space's allocation profile in canonical
// order: groups by index, volumes by creation order, then the pool.
func (ag *Aggregate) AllocProfiles() []AllocProfile {
	var out []AllocProfile
	add := func(name string, as *allocState) {
		out = append(out, AllocProfile{
			Space:      name,
			Shards:     as.shards,
			Picks:      as.picks,
			LocalPicks: as.localPicks,
			Stalls:     as.stalls,
			Staged:     as.staged,
			ShardBusy:  append([]time.Duration(nil), as.pickBusy...),
			RefillBusy: as.refillBusy,
			StallBusy:  as.stallBusy,
		})
	}
	for _, g := range ag.groups {
		add(fmt.Sprintf("rg%d", g.Index), g.as)
	}
	for _, sp := range ag.agnosticSpaces() {
		add(sp.stream, sp.as)
	}
	return out
}

// AllocPickWall is the modeled wall-clock of the aggregate's pick workload
// at the given worker width: every space's per-shard busy vectors schedule
// over the workers (parallel.Makespan's deterministic greedy order, the
// same model FlushWall uses), and synchronous stalls — which contend on
// the shared structures — serialize on top. Depth 0 charges all
// picks to one vector per space, so shared-vs-striped walls compare
// directly. Pipelined staging time is excluded: it is the latency the
// refill pipeline hides behind ongoing picks.
func (ag *Aggregate) AllocPickWall(workers int) time.Duration {
	var tasks []time.Duration
	var stalls time.Duration
	collect := func(as *allocState) {
		for _, d := range as.pickBusy {
			if d > 0 {
				tasks = append(tasks, d)
			}
		}
		stalls += as.stallBusy
	}
	for _, g := range ag.groups {
		collect(g.as)
	}
	for _, sp := range ag.agnosticSpaces() {
		collect(sp.as)
	}
	return parallel.Makespan(tasks, workers) + stalls
}
