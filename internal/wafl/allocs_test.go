//go:build !race

package wafl

import (
	"fmt"
	"math/rand"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/control"
	"waflfs/internal/obs"
	"waflfs/internal/obs/fragscan"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/picks"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
)

// steadyStateCPAllocCeiling is the most heap allocations one steady-state
// round — 4096 two-block overwrites and the CP that commits them — may make,
// in either write-path mode below. The round allocates nothing: the CP runs
// on one goroutine with its busy times in a scratch slice the aggregate
// keeps, the flush wall is modeled on a stack array, and the three TopAA
// saves rewrite their metafiles in place. Handing the groups and volumes to
// a work pool made 8 at depth 1 and 10 sharded at depth 2, the
// allocate-fresh saves 37 more, and the map-backed substrate before them
// about 9300, so a per-CP or per-block make() coming back fails here, in
// tier-1, rather than in the benchmark.
const steadyStateCPAllocCeiling = 0

// mountCycleAllocCeiling is the same gate for the benchmark's mount_cycle
// round on its geometry (2 groups of 1024 AAs, 32 volumes): 1024 overwrites +
// CP, a TopAA-seeded remount, 1024 overwrites + CP, the background fill, a
// bitmap-walk remount. It measures 40: 34, as it did before bitmap pages
// were created on first write, and the first writes to about 6 pages a
// round, which the 32 volumes' cursors keep reaching (no warm-up fills a
// 2048-AA volume). The ceiling is twice the 34. A remount rebuilds
// every cache in the storage it already has, and scores into the slices
// each space keeps, so what is left is the yield closure hbps.Replenish
// hands each volume's walk (32) and Remount's slice of per-volume page
// reads (one a call). The scoring fan-out's closures and Remount's per-call
// result slots made it 90; building each cache new made 268 (per seeded
// mount a heap and a decoded seed per group and an HBPS with its position
// index per volume, per walk mount a heap per group and an enumeration
// record per volume). With allocate-fresh saves, the map-indexed HBPS and a
// score slice per walk the round made 1411.
const mountCycleAllocCeiling = 68

// armedCPAllocCeiling is the gate for the same round with every sink armed as
// the benchmark's ssd_overwrite_obs arms them, averaged over 64 rounds because
// an allocation-quality scan rides every eighth CP. The round measures 72,
// so the ceiling is under twice that; it made 81 while the CP handed its
// work to a pool, and 275 while tsdb.Sample built every series name at every
// CP and the registry sorted its entries for every snapshot. What is left:
// the SLO engine's window queries, the snapshots themselves (a slice and one
// value per histogram), the scans' reports and the controller's evaluation.
const armedCPAllocCeiling = 130

// TestSteadyStateCPAllocs runs a system until its scratch buffers have
// reached their working size, then counts allocations per round. The race
// detector allocates on its own account, hence the build tag.
func TestSteadyStateCPAllocs(t *testing.T) {
	ssd := func(pipeline bool, shards int, o *ObsOptions) func() (*System, func()) {
		return func() (*System, func()) {
			tun := DefaultTunables()
			tun.Workers = 1
			tun.CPEveryOps = 1 << 30
			tun.Pipeline = pipeline
			tun.AllocShards = shards
			tun.Obs = o
			g := GroupSpec{
				DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 16,
				Media: aa.MediaSSD, EraseBlockBlocks: 512, Overprovision: 0.08,
			}
			const lunBlocks = 400_000 // ~51% of the aggregate
			s := NewSystem([]GroupSpec{g, g}, []VolSpec{{Name: "v", Blocks: 2 * lunBlocks}}, tun, 5)
			lun := s.Agg.Vols()[0].CreateLUN("l", lunBlocks)
			rng := rand.New(rand.NewSource(5))
			for lba := uint64(0); lba < lunBlocks; lba += 2 {
				s.Write(lun, lba, 2)
				if s.pendingBlocks >= 8192 {
					s.CP()
				}
			}
			return s, func() {
				for i := 0; i < 4096; i++ {
					s.Write(lun, uint64(rng.Intn(lunBlocks-1)), 2)
				}
				s.CP()
			}
		}
	}
	mountCycle := func() (*System, func()) {
		tun := DefaultTunables()
		tun.Workers = 1
		tun.CPEveryOps = 1 << 30
		const perDevice = 1 << 17
		g := GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: perDevice, Media: aa.MediaHDD, StripesPerAA: perDevice / 1024}
		vols := []VolSpec{{Name: "vol0", Blocks: 2048 * aa.RAIDAgnosticBlocks}}
		for i := 1; i < 32; i++ {
			vols = append(vols, VolSpec{Name: fmt.Sprintf("vol%d", i), Blocks: 8 * aa.RAIDAgnosticBlocks})
		}
		s := NewSystem([]GroupSpec{g, g}, vols, tun, 5)
		const lunBlocks = 4096
		var luns []*LUN
		for _, v := range s.Agg.Vols() {
			luns = append(luns, v.CreateLUN("l", lunBlocks))
		}
		rng := rand.New(rand.NewSource(5))
		burst := func() {
			for i := 0; i < 1024; i++ {
				s.Write(luns[rng.Intn(len(luns))], uint64(rng.Intn(lunBlocks)), 1)
			}
			s.CP()
		}
		return s, func() {
			burst()
			if ms := s.Agg.Remount(true); ms.Fallbacks != 0 {
				t.Fatalf("seeded remount fell back: %+v", ms)
			}
			burst()
			s.Agg.CompleteBackgroundFill()
			s.Agg.Remount(false)
		}
	}
	// Every sink benchmark/workloads.go's armedObs arms, as it arms them.
	armed := &ObsOptions{
		Name:      "bench",
		Export:    obs.NewRegistry(),
		Frag:      fragscan.NewRecorder(),
		FragEvery: 8,
		Watchdogs: true,
		TSDB:      tsdb.NewStore(tsdb.Config{Capacity: 128, HistBuckets: tsdb.SuffixFilter(".lat_ns")}),
		SLO:       slo.NewSet(slo.DefaultSpecs()),
		OpTrace:   optrace.NewRecorder(optrace.Config{Rate: 16, Seed: 5}),
		Picks:     picks.NewRecorder(picks.DefaultConfig()),
		Control:   control.NewSet(control.DefaultPolicies()),
	}
	// The ssd rounds warm up for 60 rounds: their overwrites give the
	// volume's bitmap a page of its own every four or five rounds (the first
	// write to a page allocates its storage, once) until round 44 at depth 1
	// and round 51 at depth 2, and the working sizes settle well before.
	for _, mode := range []struct {
		name         string
		build        func() (*System, func())
		warmup, runs int
		ceiling      float64
	}{
		{"depth1_unsharded", ssd(false, 0, nil), 60, 10, steadyStateCPAllocCeiling},
		{"depth2_shards4", ssd(true, 4, nil), 60, 10, steadyStateCPAllocCeiling},
		{"mount_cycle", mountCycle, 40, 10, mountCycleAllocCeiling},
		{"depth1_armed", ssd(false, 0, armed), 60, 64, armedCPAllocCeiling},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s, round := mode.build()
			for i := 0; i < mode.warmup; i++ {
				round()
			}
			if got := testing.AllocsPerRun(mode.runs, round); got > mode.ceiling {
				t.Errorf("%.0f allocations per round, ceiling %.0f", got, mode.ceiling)
			} else {
				t.Logf("%.0f allocations per round", got)
			}
			s.Drain()
			for _, v := range s.Agg.Vols() {
				if err := v.CheckRefcounts(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
