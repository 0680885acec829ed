package experiments

import (
	"io"
	"testing"

	"waflfs/internal/obs"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/wafl"
)

// An obs-instrumented fig6 run: the four cache arms fan out concurrently,
// each registering under its own prefix, and both sinks fill — the export
// registry with every arm's live counters, the tsdb with every arm's per-CP
// series under the same names.
func TestFig6WithObsSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	export := obs.NewRegistry()
	store := tsdb.NewStore(tsdb.DefaultConfig())
	cfg := quickConfig()
	cfg.Scale = 0.05
	cfg.Obs = &wafl.ObsOptions{Export: export, TSDB: store}

	RunFig6(cfg, io.Discard)

	for _, arm := range []string{"both", "agg-only", "vol-only", "none"} {
		name := "fig6." + arm + ".wafl.cps"
		n, ok := export.Value(name)
		if !ok || n == 0 {
			t.Errorf("%s = %d,%v, want > 0", name, n, ok)
			continue
		}
		// The last sample is the arm's final CP, so the series ends where
		// the live counter stands.
		if v, ok := store.ValueAt(name, n); !ok || v != float64(n) {
			t.Errorf("tsdb %s at cp %d = %v,%v, want %d", name, n, v, ok, n)
		}
		if pts := store.Points(name); len(pts) == 0 || pts[len(pts)-1].CPLast != n {
			t.Errorf("tsdb %s holds %d points, want one per CP up to %d", name, len(pts), n)
		}
	}
}
