package experiments

import (
	"io"
	"strings"
	"testing"

	"waflfs/internal/obs"
	"waflfs/internal/obs/picks"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/wafl"
)

// wdAudit sums every arm's watchdog check and violation counters and fails
// the test on any violation, printing the bounded violation log prefix the
// counters carry no detail for.
func wdAudit(t *testing.T, export *obs.Registry, label string) {
	t.Helper()
	var checks, violations uint64
	for _, m := range export.StableSnapshot().Metrics {
		switch {
		case strings.HasSuffix(m.Name, ".watchdog.checks"):
			checks += m.Value
		case strings.HasSuffix(m.Name, ".watchdog.violations"):
			if m.Value > 0 {
				t.Errorf("%s: %s = %d", label, m.Name, m.Value)
			}
			violations += m.Value
		}
	}
	if checks == 0 {
		t.Errorf("%s: watchdogs performed no checks", label)
	}
	if violations == 0 {
		t.Logf("%s: %d watchdog checks, 0 violations", label, checks)
	}
}

// The online watchdogs must stay silent across the real experiment drivers —
// heavy aging, concurrent arms, remounts, and crash recovery all running
// with conservation, score-sample, and pick-floor monitors armed.
func TestWatchdogsCleanAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runs := []struct {
		name string
		run  func(cfg Config)
	}{
		{"fig6", func(cfg Config) { RunFig6(cfg, io.Discard) }},
		{"fig10", func(cfg Config) { RunFig10(cfg, io.Discard) }},
		{"crash-matrix", func(cfg Config) { RunCrashMatrix(cfg, io.Discard) }},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			export := obs.NewRegistry()
			cfg := quickConfig()
			cfg.Scale = 0.05
			cfg.Obs = &wafl.ObsOptions{
				Export:    export,
				Watchdogs: true,
				TSDB:      tsdb.NewStore(tsdb.DefaultConfig()),
				Picks:     picks.NewRecorder(picks.DefaultConfig()),
			}
			r.run(cfg)
			wdAudit(t, export, r.name)
		})
	}
}
