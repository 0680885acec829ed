package aa

import (
	"waflfs/internal/bitmap"
	"waflfs/internal/obs"
	"waflfs/internal/parallel"
)

// ScoresObs is Scores with observability: po records the fan-out in the
// caller's work-pool instruments and scored ticks once per AA scored. Both
// may be nil (the instruments are nil-safe), so Scores simply delegates
// here. The recording happens outside the sharded loop, so it is identical
// for every worker count.
func ScoresObs(t Topology, bm *bitmap.Bitmap, workers int, po *parallel.Obs, scored *obs.Counter) []uint64 {
	scores := make([]uint64, t.NumAAs())
	parallel.ForEachObs(workers, len(scores), po, func(id int) {
		scores[id] = Score(t, bm, ID(id))
	})
	scored.Add(uint64(len(scores)))
	return scores
}

// ScoreAllParallelObs is ScoreAllParallel with the same observability hooks
// as ScoresObs.
func ScoreAllParallelObs(t Topology, bm *bitmap.Bitmap, workers int, po *parallel.Obs, scored *obs.Counter) []uint64 {
	bm.ChargeScan(t.Space())
	return ScoresObs(t, bm, workers, po, scored)
}
