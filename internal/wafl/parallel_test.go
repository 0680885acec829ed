package wafl

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"waflfs/internal/aa"
)

// lifecycleResult captures every observable of one full system lifecycle
// that must be bit-identical at any lane count. FlushWall is excluded on
// purpose: it is the one quantity the Workers knob is supposed to change.
type lifecycleResult struct {
	Counters     Counters
	GroupMetrics []GroupMetrics
	VolMetrics   SpaceMetrics
	MountTop     MountStats
	MountWalk    MountStats
	BitmapUsed   uint64
}

// runLifecycle drives fill + churn + CPs + seeded remount + background fill
// + fallback remount under the given worker count and returns the
// observables plus the modeled CP flush wall-clock.
func runLifecycle(workers int, seed int64) (lifecycleResult, time.Duration) {
	tun := DefaultTunables()
	tun.Workers = workers
	tun.CPEveryOps = 512
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, seed)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 120000)
	for lba := uint64(0); lba < 120000; lba++ {
		s.Write(lun, lba, 1)
	}
	rng := rand.New(rand.NewSource(seed + 100))
	for i := 0; i < 40000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()

	res := lifecycleResult{}
	res.MountTop = s.Agg.Remount(true)
	for i := 0; i < 5000; i++ {
		s.Write(lun, uint64(rng.Intn(120000)), 1)
	}
	s.CP()
	s.Agg.CompleteBackgroundFill()
	s.CP()
	res.MountWalk = s.Agg.Remount(false)

	res.Counters = s.Counters()
	for _, g := range s.Agg.Groups() {
		res.GroupMetrics = append(res.GroupMetrics, g.Metrics())
	}
	res.VolMetrics = s.Agg.Vols()[0].Metrics()
	res.BitmapUsed = s.Agg.Bitmap().Used()
	return res, s.CPFlushWall()
}

// The determinism contract: every measured counter — CPU, device busy,
// metafile pages, mount I/O, cache ops — is bit-identical at every modeled
// lane count; the lane count reaches nothing but the modeled walls.
func TestCPAndMountSerialEquivalence(t *testing.T) {
	serial, wall1 := runLifecycle(1, 42)
	for _, workers := range []int{2, 8} {
		got, _ := runLifecycle(workers, 42)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d: observables differ from serial run:\nserial: %+v\ngot:    %+v",
				workers, serial, got)
		}
	}
	if wall1 == 0 {
		t.Fatal("serial lifecycle accumulated no CP flush wall-clock")
	}
}

// The modeled payoff: with groups flushing concurrently, the CP flush
// wall-clock (makespan over groups) must shrink versus the serial sum.
// testSpecs has two equal groups, so 8 workers should approach 2x.
func TestCPFlushWallShrinksWithWorkers(t *testing.T) {
	serial, wall1 := runLifecycle(1, 7)
	par, wall8 := runLifecycle(8, 7)
	if serial.Counters != par.Counters {
		t.Fatalf("counters diverged: %+v vs %+v", serial.Counters, par.Counters)
	}
	if wall8 >= wall1 {
		t.Fatalf("flush wall did not shrink: workers=1 %v, workers=8 %v", wall1, wall8)
	}
	speedup := float64(wall1) / float64(wall8)
	if speedup < 1.5 {
		t.Fatalf("modeled CP speedup %.2fx with 2 equal groups, want >= 1.5x", speedup)
	}
}

// Tunables.Workers left at 0 models 8 lanes whatever the host, so no
// modeled wall may move with GOMAXPROCS: not a CP's FlushWall, not the
// depth-2 pipeline's walls, not the pick wall.
func TestModeledWallsIgnoreGOMAXPROCS(t *testing.T) {
	type walls struct {
		CPs  []CPStats
		Pipe PipelineStats
		Pick time.Duration
	}
	run := func(procs int) walls {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tun := DefaultTunables()
		tun.Pipeline = true
		tun.AllocShards = 4
		tun.CPEveryOps = 1 << 30
		vols := []VolSpec{
			{Name: "v0", Blocks: 8 * aa.RAIDAgnosticBlocks},
			{Name: "v1", Blocks: 8 * aa.RAIDAgnosticBlocks},
			{Name: "v2", Blocks: 8 * aa.RAIDAgnosticBlocks},
		}
		s := NewSystem(testSpecs(), vols, tun, 23)
		var luns []*LUN
		for _, v := range s.Agg.Vols() {
			luns = append(luns, v.CreateLUN("l", 40000))
		}
		rng := rand.New(rand.NewSource(23))
		var w walls
		for round := 0; round < 8; round++ {
			for i := 0; i < 4000; i++ {
				s.Write(luns[rng.Intn(len(luns))], uint64(rng.Intn(40000)), 1)
			}
			w.CPs = append(w.CPs, s.CP())
		}
		w.CPs = append(w.CPs, s.Drain())
		w.Pipe = s.PipelineStats()
		w.Pick = s.Agg.AllocPickWall(s.Agg.Tunables().Workers)
		return w
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("modeled walls moved with GOMAXPROCS:\n1: %+v\n4: %+v", one, four)
	}
	if one.Pipe.FlushWall == 0 || one.Pick == 0 {
		t.Fatalf("nothing modeled: %+v", one)
	}
}

// benchmarkParallelCP drives repeated write-batch + CP cycles over an
// 8-group aggregate and reports the modeled CP flush wall-clock and the
// modeled speedup (serial device-busy sum over makespan). The host wall
// times are dominated by write allocation and do not depend on the lane
// count; the modeled metrics isolate the flush concurrency the lane count
// controls.
func benchmarkParallelCP(b *testing.B, workers int) {
	tun := DefaultTunables()
	tun.Workers = workers
	tun.CPEveryOps = 1 << 30 // CP only when the benchmark says so
	specs := make([]GroupSpec, 8)
	for i := range specs {
		specs[i] = GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 15,
			Media: aa.MediaHDD, StripesPerAA: 256}
	}
	s := NewSystem(specs, []VolSpec{{Name: "v", Blocks: 1 << 21}}, tun, 7)
	lun := s.Agg.Vols()[0].CreateLUN("l", 1<<19)
	rng := rand.New(rand.NewSource(8))
	for lba := uint64(0); lba < 1<<17; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()

	var busy, wall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8192; j++ {
			s.Write(lun, uint64(rng.Intn(1<<19)), 1)
		}
		st := s.CP()
		busy += st.DeviceBusy
		wall += st.FlushWall
	}
	b.StopTimer()
	if wall > 0 {
		b.ReportMetric(float64(busy)/float64(wall), "modeled-speedup")
		b.ReportMetric(float64(wall)/float64(b.N)/float64(time.Millisecond), "modeled-cp-wall-ms/op")
	}
}

func BenchmarkParallelCP1(b *testing.B) { benchmarkParallelCP(b, 1) }
func BenchmarkParallelCP8(b *testing.B) { benchmarkParallelCP(b, 8) }
