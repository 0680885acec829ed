package experiments

import (
	"context"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The experiment drivers fan arms and sweep points across the work pool;
// these tests pin the determinism contract: the full result structs — every
// curve point, counter, and headline percentage — are bit-identical whether
// an experiment runs serially or across 8 workers.

func TestFig6WorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-arm experiment, skipped in -short")
	}
	serial := quickConfig()
	serial.Workers = 1
	par := quickConfig()
	par.Workers = 8
	a := RunFig6(serial, io.Discard)
	b := RunFig6(par, io.Discard)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fig6 results differ between workers=1 and workers=8:\n%+v\nvs\n%+v", a, b)
	}
}

func TestFig10WorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point experiment, skipped in -short")
	}
	serial := quickConfig()
	serial.Workers = 1
	par := quickConfig()
	par.Workers = 8
	a := RunFig10(serial, io.Discard)
	b := RunFig10(par, io.Discard)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fig10 results differ between workers=1 and workers=8:\n%+v\nvs\n%+v", a, b)
	}
}

// A canceled run must return the context error, print nothing for
// never-started experiments, and leave no pool goroutines behind.
func TestRunAllContextPreCanceledDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any experiment can be claimed

	var out countingWriter
	cfg := quickConfig()
	cfg.Workers = 4
	_, err := RunAllContext(ctx, cfg, &out, All())
	if err == nil {
		t.Fatal("RunAllContext returned nil error for a pre-canceled context")
	}
	if out.n != 0 {
		t.Fatalf("pre-canceled run wrote %d bytes of report output, want 0", out.n)
	}

	// The pool must have drained: allow the runtime a moment to retire
	// worker goroutines, then require we are back at (or below) baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked after canceled run: %d before, %d after", before, got)
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
