package experiments

import (
	"io"
	"strings"
	"testing"

	"waflfs/internal/obs"
	"waflfs/internal/wafl"
)

// An obs-instrumented fig6 run: the four cache arms fan out concurrently,
// each registering under its own prefix, and all sinks fill.
func TestFig6WithObsSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	export := obs.NewRegistry()
	tracer := obs.NewTracer()
	var csv strings.Builder
	rec := obs.NewCSVRecorder(&csv)
	cfg := quickConfig()
	cfg.Scale = 0.05
	cfg.Obs = &wafl.ObsOptions{Export: export, Tracer: tracer, CSV: rec}

	RunFig6(cfg, io.Discard)
	if err := rec.Flush(); err != nil {
		t.Fatalf("csv flush: %v", err)
	}

	for _, arm := range []string{"both", "agg-only", "vol-only", "none"} {
		name := "fig6." + arm + ".wafl.cps"
		if n, ok := export.Value(name); !ok || n == 0 {
			t.Errorf("%s = %d,%v, want > 0", name, n, ok)
		}
	}
	if tracer.Len() == 0 {
		t.Error("tracer recorded no events")
	}
	if !strings.HasPrefix(csv.String(), obs.CSVHeader) || strings.Count(csv.String(), "\n") < 10 {
		t.Errorf("CSV output too small: %d bytes", csv.Len())
	}
	// Events from concurrent arms must still sort canonically by system.
	evs := tracer.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Sys < evs[i-1].Sys {
			t.Fatalf("events not in canonical order at %d: %q after %q", i, evs[i].Sys, evs[i-1].Sys)
		}
	}
}
