package parallel

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 33} {
		const n = 1000
		counts := make([]int32, n)
		ForEach(workers, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapIsOrderedAndWorkerCountInvariant(t *testing.T) {
	fn := func(i int) int { return i * i }
	serial := Map(1, 200, fn)
	for _, workers := range []int{2, 8} {
		got := Map(workers, 200, fn)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d: results differ from serial", workers)
		}
	}
	for i, v := range serial {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	ran := false
	ForEach(4, 0, func(int) { ran = true })
	ForEach(4, -3, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for empty input")
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
	auto := Workers(0)
	if auto < 1 || auto > maxAutoWorkers {
		t.Fatalf("Workers(0) = %d", auto)
	}
	if auto > runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d exceeds GOMAXPROCS", auto)
	}
}

// A canceled fan-out must drain: in-flight items complete, unstarted items
// are skipped, no goroutines leak, and the error reports the cancellation.
// This is the shutdown path of a canceled experiment run.
func TestForEachCtxCancelDrainsWithoutLeaks(t *testing.T) {
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started, finished atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- ForEachCtx(ctx, 4, 100, func(i int) {
			started.Add(1)
			<-release
			finished.Add(1)
		})
	}()
	// Wait for the workers to pick up their first items, then cancel.
	for started.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	err := <-done
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every started item finished (drained, not abandoned)...
	if started.Load() != finished.Load() {
		t.Fatalf("started %d != finished %d", started.Load(), finished.Load())
	}
	// ...and most of the 100 items never started.
	if started.Load() > 20 {
		t.Fatalf("%d items started after early cancel", started.Load())
	}
	waitForGoroutines(t, base)
}

func TestForEachCtxPreCanceledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int32{}
	if err := ForEachCtx(ctx, 4, 50, func(int) { ran.Add(1) }); err == nil {
		t.Fatal("no error from pre-canceled context")
	}
	if ran.Load() != 0 {
		t.Fatalf("%d items ran under a pre-canceled context", ran.Load())
	}
}

func TestForEachNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for r := 0; r < 50; r++ {
		ForEach(8, 64, func(int) {})
	}
	waitForGoroutines(t, base)
}

// waitForGoroutines polls until the goroutine count returns to (at most)
// the baseline, allowing exiting workers a moment to unwind.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v", r)
		}
	}()
	ForEach(4, 100, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
	t.Fatal("panic did not propagate")
}

func TestMakespan(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x)
		}
		return out
	}
	cases := []struct {
		tasks   []time.Duration
		workers int
		want    time.Duration
	}{
		{ms(), 4, 0},
		{ms(5), 1, 5},
		{ms(1, 2, 3, 4), 1, 10}, // serial: sum
		{ms(1, 2, 3, 4), 4, 4},  // fully parallel: max
		{ms(1, 2, 3, 4), 8, 4},  // extra workers idle
		{ms(3, 1, 1, 1), 2, 3},  // w0: 3, w1: 1+1+1
		{ms(4, 4, 4, 4, 4, 4, 4, 4), 8, 4},
		{ms(4, 4, 4, 4, 4, 4, 4, 4), 2, 16},
		{ms(4, 4, 4, 4, 4, 4, 4, 4, 4), 0, 8}, // no lane count: 8 lanes, whatever the host
		{ms(4, 4, 4, 4, 4, 4, 4, 4, 4), 9, 4}, // past the stack buffer
	}
	for _, c := range cases {
		if got := Makespan(c.tasks, c.workers); got != c.want {
			t.Errorf("Makespan(%v, %d) = %d, want %d", c.tasks, c.workers, got, c.want)
		}
	}
	// The modeled wall-clock never beats max(task) and never exceeds the sum.
	tasks := ms(7, 2, 9, 1, 5, 5, 3)
	for w := 1; w <= 10; w++ {
		got := Makespan(tasks, w)
		if got < 9 || got > 32 {
			t.Errorf("workers=%d: makespan %d outside [max, sum]", w, got)
		}
	}
	// A CP models its flush wall with Makespan; up to 8 lanes that costs
	// no allocation.
	if n := testing.AllocsPerRun(10, func() { Makespan(tasks, 0) }); n != 0 {
		t.Errorf("Makespan at the default lane count allocates %.0f times", n)
	}
}
