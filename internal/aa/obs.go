package aa

import (
	"slices"

	"waflfs/internal/bitmap"
	"waflfs/internal/obs"
	"waflfs/internal/parallel"
)

// ScoresObs is Scores with observability: po records the fan-out in the
// caller's work-pool instruments and scored ticks once per AA scored. Both
// may be nil (the instruments are nil-safe), so Scores simply delegates
// here. The recording happens outside the sharded loop, so it is identical
// for every worker count.
//
// The scores land in dst when it has the capacity (whatever it held is
// overwritten) and in a new slice otherwise, so a space that rescans at
// every mount keeps one buffer: scores = ScoresObs(scores, ...).
func ScoresObs(dst []uint64, t Topology, bm *bitmap.Bitmap, workers int, po *parallel.Obs, scored *obs.Counter) []uint64 {
	scores := slices.Grow(dst[:0], t.NumAAs())[:t.NumAAs()]
	parallel.ForEachObs(workers, len(scores), po, func(id int) {
		scores[id] = Score(t, bm, ID(id))
	})
	scored.Add(uint64(len(scores)))
	return scores
}

// ScoreAllParallelObs computes every AA's score like ScoreAll, fanning the
// popcount work across the work pool, with the observability hooks and the
// destination rule of ScoresObs. The metafile-scan charge covers the whole
// space exactly once — each bitmap page is read once no matter how many
// shards scan it — so mount-time I/O accounting is identical for every
// worker count, including 1. Rebuilding the caches of a large file system
// after a failover is exactly the bulk, embarrassingly parallel work a
// storage controller spreads across cores.
func ScoreAllParallelObs(dst []uint64, t Topology, bm *bitmap.Bitmap, workers int, po *parallel.Obs, scored *obs.Counter) []uint64 {
	bm.ChargeScan(t.Space())
	return ScoresObs(dst, t, bm, workers, po, scored)
}
