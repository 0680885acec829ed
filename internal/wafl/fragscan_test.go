package wafl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/obs/fragscan"
	"waflfs/internal/obs/tsdb"
)

// A space's names and device spans are built at its first scan and handed out
// again at every later one; they must be what a scan used to build afresh, and
// the picked-quality window must still be per scan.
func TestFragTargetsBuiltOnce(t *testing.T) {
	tun := DefaultTunables()
	tun.CPEveryOps = 256
	ts := tsdb.NewStore(tsdb.Config{Capacity: 16})
	tun.Obs = &ObsOptions{Name: "arm", TSDB: ts, FragEvery: 2}
	s := NewSystem(testSpecs(), []VolSpec{
		{Name: "va", Blocks: 8 * aa.RAIDAgnosticBlocks}, {Name: "vb", Blocks: 8 * aa.RAIDAgnosticBlocks},
	}, tun, 5)
	s.Agg.AddObjectPool(PoolSpec{Blocks: 4 * aa.RAIDAgnosticBlocks})
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 20000)
	for lba := uint64(0); lba < 20000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()

	s.Agg.obsOpts.FragEvery = 1 << 30 // the scans below are the only ones from here on
	first, spaces := s.Agg.fragTargets()
	before := s.Agg.Groups()[0].pickedCount
	var want []string
	for _, g := range s.Agg.Groups() {
		want = append(want, fmt.Sprintf("arm.rg%d", g.Index))
	}
	want = append(want, "arm.vol.va", "arm.vol.vb", "arm.pool")
	if len(first) != len(want) || len(spaces) != len(want) {
		t.Fatalf("%d targets, %d spaces, want %d", len(first), len(spaces), len(want))
	}
	for i, tg := range first {
		if tg.Space != want[i] || spaces[i].name != want[i] {
			t.Errorf("target %d is %q (%q), want %q", i, tg.Space, spaces[i].name, want[i])
		}
		for j, suffix := range []string{"p10", "p50", "p90", "free_frac", "picked_free_frac"} {
			if got := spaces[i].series[j]; got != want[i]+".frag."+suffix {
				t.Errorf("series %d of %s is %q", j, want[i], got)
			}
			if len(ts.Points(want[i]+".frag."+suffix)) == 0 {
				t.Errorf("no points in %s.frag.%s", want[i], suffix)
			}
		}
	}
	for i, g := range s.Agg.Groups() {
		var spans []block.Range
		for d := 0; d < g.geo.DataDevices; d++ {
			spans = append(spans, g.geo.DeviceRange(d))
		}
		if !reflect.DeepEqual(first[i].DeviceSpans, spans) {
			t.Errorf("group %d spans %v, want %v", i, first[i].DeviceSpans, spans)
		}
	}
	if empty, _ := s.Agg.fragTargets(); empty[0].Picks != 0 || empty[0].PickedFreeFrac != 0 {
		t.Errorf("%d picks in an empty window", empty[0].Picks)
	}

	for lba := uint64(0); lba < 20000; lba += 3 {
		s.Write(lun, lba, 1)
	}
	s.CP()
	again, _ := s.Agg.fragTargets()
	for i := range again {
		if again[i].Space != first[i].Space {
			t.Errorf("target %d renamed %q to %q", i, first[i].Space, again[i].Space)
		}
		if len(first[i].DeviceSpans) > 0 && &again[i].DeviceSpans[0] != &first[i].DeviceSpans[0] {
			t.Errorf("target %d: device spans rebuilt", i)
		}
	}
	if now := s.Agg.Groups()[0].pickedCount; now == before || again[0].Picks != now-before {
		t.Errorf("%d picks in the window of the second burst, want %d - %d", again[0].Picks, now, before)
	}
}

// BenchmarkFragScan prices one scan of one RAID-aware and one RAID-agnostic
// space of ssd_overwrite's geometry: a 6+1 SSD group of 65536 stripes and the
// volume over it, aged by random overwrites to the benchmark's fill.
func BenchmarkFragScan(b *testing.B) {
	tun := DefaultTunables()
	tun.Workers = 1
	tun.CPEveryOps = 4096
	g := GroupSpec{
		DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 65536,
		Media: aa.MediaSSD, EraseBlockBlocks: 512, Overprovision: 0.08,
	}
	lunBlocks := uint64(float64(2*6*g.BlocksPerDevice) * 0.55)
	s := NewSystem([]GroupSpec{g, g}, []VolSpec{{Name: "vol0", Blocks: 2 * lunBlocks}}, tun, 5)
	lun := s.Agg.Vols()[0].CreateLUN("lun0", lunBlocks)
	for lba := uint64(0); lba < lunBlocks; lba++ {
		s.Write(lun, lba, 1)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < int(1.2*float64(lunBlocks)); i++ {
		s.Write(lun, uint64(rng.Int63n(int64(lunBlocks))), 1)
	}
	s.CP()
	s.Drain()
	targets, _ := s.Agg.fragTargets()
	for _, tg := range []fragscan.Target{targets[0], targets[2]} {
		b.Run(string(tg.Kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rep := fragscan.Scan(tg, 1); rep.Runs == 0 {
					b.Fatal("an aged space with no free run")
				}
			}
		})
	}
}
