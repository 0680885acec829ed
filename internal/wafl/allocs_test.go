//go:build !race

package wafl

import (
	"math/rand"
	"testing"

	"waflfs/internal/aa"
)

// steadyStateCPAllocCeiling is the most heap allocations one steady-state
// round — 4096 two-block overwrites and the CP that commits them — may make,
// in either mode below. It is twice what the round measured when the write
// buffer, refcounts, delta ledgers, dirty-page sets and tetris scratch left
// the hash maps (37 at depth 1, 39 sharded at depth 2: the TopAA encoding of
// three metafiles and commitSealed's per-CP slices, nothing per block). The
// map-backed substrate made about 9300 on the same round, so a per-CP or
// per-block make() coming back fails here, in tier-1, rather than in the
// benchmark.
const steadyStateCPAllocCeiling = 80

// TestSteadyStateCPAllocs ages a small SSD system until its scratch buffers
// have reached their working size, then counts allocations per round. The
// race detector allocates on its own account, hence the build tag.
func TestSteadyStateCPAllocs(t *testing.T) {
	for _, mode := range []struct {
		name     string
		pipeline bool
		shards   int
	}{
		{"depth1_unsharded", false, 0},
		{"depth2_shards4", true, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			tun := DefaultTunables()
			tun.Workers = 1
			tun.CPEveryOps = 1 << 30
			tun.Pipeline = mode.pipeline
			tun.AllocShards = mode.shards
			g := GroupSpec{
				DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 16,
				Media: aa.MediaSSD, EraseBlockBlocks: 512, Overprovision: 0.08,
			}
			const lunBlocks = 400_000 // ~51% of the aggregate
			s := NewSystem([]GroupSpec{g, g}, []VolSpec{{Name: "v", Blocks: 2 * lunBlocks}}, tun, 5)
			lun := s.Agg.Vols()[0].CreateLUN("l", lunBlocks)
			rng := rand.New(rand.NewSource(5))
			round := func() {
				for i := 0; i < 4096; i++ {
					s.Write(lun, uint64(rng.Intn(lunBlocks-1)), 2)
				}
				s.CP()
			}
			for lba := uint64(0); lba < lunBlocks; lba += 2 {
				s.Write(lun, lba, 2)
				if s.pendingBlocks >= 8192 {
					s.CP()
				}
			}
			for i := 0; i < 40; i++ {
				round()
			}
			if got := testing.AllocsPerRun(10, round); got > steadyStateCPAllocCeiling {
				t.Errorf("%.0f allocations per 4096 overwrites + CP, ceiling %d", got, steadyStateCPAllocCeiling)
			} else {
				t.Logf("%.0f allocations per round", got)
			}
			s.Drain()
			if err := s.Agg.Vols()[0].CheckRefcounts(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
