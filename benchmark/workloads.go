package main

import (
	"fmt"
	"math/rand"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/control"
	"waflfs/internal/obs"
	"waflfs/internal/obs/fragscan"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/picks"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
	"waflfs/internal/wafl"
	"waflfs/internal/workload"
)

// cpEvery is the number of client ops between the CPs the benchmark
// drives. Tunables.CPEveryOps is set out of reach, so every CP is an
// explicit call the benchmark can time from outside.
const cpEvery = 4096

// op is one generated client operation. The program sees only these.
type op struct {
	lun  int
	lba  uint64
	n    int
	read bool
}

// instance is one built and aged system with its load generator.
type instance struct {
	sys  *wafl.System
	luns []*wafl.LUN
	gen  func() op
	// written tracks, per LUN, the LBAs the benchmark expects to read back
	// as written (one bit each) for the post-run check.
	written [][]uint64
	// obs holds the armed sinks (nil with observability off).
	obs *wafl.ObsOptions
}

// media returns the medium of the aggregate's (uniform) RAID groups.
func (in *instance) media() aa.Media { return in.sys.Agg.Groups()[0].Spec.Media }

// Workload is one set of inputs: how to build and age its system, and what
// one round of the measured window does. A window is a whole number of
// rounds, so every modeled number repeats exactly for a given seed.
type Workload struct {
	Name string
	Why  string
	// RoundsPerSecond converts --seconds into a fixed round count: the
	// number of rounds the 2-CPU reference host completes per second.
	RoundsPerSecond float64
	OpsPerRound     int
	Obs             bool
	build           func(seed int64, o *wafl.ObsOptions, shrink uint64) *instance
	round           func(d *driver, r int)
}

// Workloads lists the five workloads in reporting order.
var Workloads = []Workload{
	{
		Name:            "ssd_overwrite",
		Why:             "Fig. 6 shape: aged all-SSD aggregate, 8 KiB random overwrites; the write/CP path does all the work, reads none, caches fit",
		RoundsPerSecond: 120, OpsPerRound: cpEvery,
		build: buildSSD, round: roundOpsCP,
	},
	{
		Name:            "hdd_oltp",
		Why:             "Fig. 7 shape: imbalanced HDD groups, 67% 4 KiB reads; System.Read dominates, so a write-path gain that costs reads shows",
		RoundsPerSecond: 360, OpsPerRound: cpEvery,
		build: buildHDD, round: roundOpsCP,
	},
	{
		Name:            "mount_cycle",
		Why:             "Fig. 10 shape sized past the caches: seeded and bitmap-walk remounts each cycle; TopAA, scoring and cache rebuilds dominate",
		RoundsPerSecond: 125, OpsPerRound: 2 * mountChunk,
		build: buildMount, round: roundMountCycle,
	},
	{
		Name:            "snap_pipeline",
		Why:             "pipelined, sharded CP on SMR+AZCS with frees arriving by snapshot deletion through delayed frees: the CP layer used differently",
		RoundsPerSecond: 36, OpsPerRound: 4 * snapChunk,
		build: buildSnap, round: roundSnap,
	},
	{
		Name:            "ssd_overwrite_obs",
		Why:             "ssd_overwrite byte for byte with every observability sink armed; paired with ssd_overwrite it prices internal/obs and control",
		RoundsPerSecond: 120, OpsPerRound: cpEvery, Obs: true,
		build: buildSSD, round: roundOpsCP,
	},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// armedObs arms every sink the way experiments.CollectArtifact does.
func armedObs(seed int64) *wafl.ObsOptions {
	return &wafl.ObsOptions{
		Name:      "bench",
		Export:    obs.NewRegistry(),
		Frag:      fragscan.NewRecorder(),
		FragEvery: 8,
		Watchdogs: true,
		TSDB:      tsdb.NewStore(tsdb.Config{Capacity: 128, HistBuckets: tsdb.SuffixFilter(".lat_ns")}),
		SLO:       slo.NewSet(slo.DefaultSpecs()),
		OpTrace:   optrace.NewRecorder(optrace.Config{Rate: 16, Seed: seed}),
		Picks:     picks.NewRecorder(picks.DefaultConfig()),
		Control:   control.NewSet(control.DefaultPolicies()),
	}
}

// baseTunables is the load shape shared by all workloads: one worker, CPs
// driven by the benchmark.
func baseTunables(o *wafl.ObsOptions) wafl.Tunables {
	tun := wafl.DefaultTunables()
	tun.Workers = 1
	tun.CPEveryOps = 1 << 30
	tun.Obs = o
	return tun
}

// age fills the LUNs sequentially and applies churn times their capacity in
// random single-block overwrites, as workload.Age does, but with a CP every
// cpEvery ops: one CP over the whole aging run would allocate and free
// everything at once and leave no fragmentation to measure.
func age(s *wafl.System, luns []*wafl.LUN, rng *rand.Rand, churn float64) {
	var total uint64
	n := 0
	for _, l := range luns {
		for lba := uint64(0); lba < l.Blocks(); lba++ {
			s.Write(l, lba, 1)
			if n++; n%cpEvery == 0 {
				s.CP()
			}
		}
		total += l.Blocks()
	}
	for left := int(churn * float64(total)); left > 0; left -= cpEvery {
		workload.RandomOverwrite(s, luns, rng, min(left, cpEvery), 1)
		s.CP()
	}
	s.CP()
	s.Drain()
}

// finish records which LBAs are written after aging and returns the
// instance ready for its window.
func (in *instance) finish() *instance {
	in.written = make([][]uint64, len(in.luns))
	for i, l := range in.luns {
		in.written[i] = make([]uint64, (l.Blocks()+63)/64)
		for lba := uint64(0); lba < l.Blocks(); lba++ {
			if l.Written(lba) {
				in.written[i][lba/64] |= 1 << (lba % 64)
			}
		}
	}
	return in
}

// Generators. Each mirrors the distribution of the internal/workload
// generator it is named after, one op at a time, so the benchmark can time
// the call into the program apart from the generation.

func genOverwrite(luns []*wafl.LUN, rng *rand.Rand, nb int) func() op {
	return func() op {
		i := rng.Intn(len(luns))
		return op{lun: i, lba: uint64(rng.Int63n(int64(luns[i].Blocks() - uint64(nb) + 1))), n: nb}
	}
}

func genOLTP(luns []*wafl.LUN, rng *rand.Rand, mix workload.OLTP) func() op {
	return func() op {
		i := rng.Intn(len(luns))
		lba := uint64(rng.Int63n(int64(luns[i].Blocks() - uint64(mix.OpBlocks) + 1)))
		return op{lun: i, lba: lba, n: mix.OpBlocks, read: rng.Float64() < mix.ReadFraction}
	}
}

func genHotCold(luns []*wafl.LUN, rng *rand.Rand, h workload.HotCold) func() op {
	return func() op {
		i := rng.Intn(len(luns))
		span := luns[i].Blocks() - uint64(h.OpBlocks)
		hot := uint64(float64(span) * h.HotFraction)
		if hot > 0 && rng.Float64() < h.HotWeight {
			return op{lun: i, lba: uint64(rng.Int63n(int64(hot))), n: h.OpBlocks}
		}
		return op{lun: i, lba: uint64(rng.Int63n(int64(span + 1))), n: h.OpBlocks}
	}
}

// roundOpsCP is the plain round: cpEvery generated ops, then a CP.
func roundOpsCP(d *driver, _ int) {
	d.ops(cpEvery)
	d.cp()
}

// buildSSD is the Fig. 6 configuration at quarter scale: 2x(6+1) SSD
// groups, one thin FlexVol, a LUN of 55% of the aggregate aged at churn
// 1.2. The volume has ~27 AAs, far inside the 1000-entry HBPS list.
func buildSSD(seed int64, o *wafl.ObsOptions, shrink uint64) *instance {
	g := wafl.GroupSpec{
		DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 65536 / shrink,
		Media: aa.MediaSSD, EraseBlockBlocks: 512, Overprovision: 0.08,
	}
	lunBlocks := uint64(float64(2*6*g.BlocksPerDevice) * 0.55)
	s := wafl.NewSystem([]wafl.GroupSpec{g, g}, []wafl.VolSpec{{Name: "vol0", Blocks: 2 * lunBlocks}}, baseTunables(o), seed)
	in := &instance{sys: s, obs: o}
	in.luns = []*wafl.LUN{s.Agg.Vols()[0].CreateLUN("lun0", lunBlocks)}
	rng := rand.New(rand.NewSource(seed + 1))
	age(s, in.luns, rng, 1.2)
	in.gen = genOverwrite(in.luns, rng, 2)
	return in.finish()
}

// buildHDD is the Fig. 7 configuration: four (6+1) HDD groups aged
// unevenly exactly as experiments.runFig7With does (age everything, empty
// groups 2 and 3, thin groups 0 and 1 to ~50% used), with four volumes.
func buildHDD(seed int64, o *wafl.ObsOptions, shrink uint64) *instance {
	tun := baseTunables(o)
	tun.MinAAScoreFraction = 0.05
	g := wafl.GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: (1 << 15) / shrink, Media: aa.MediaHDD}
	lunBlocks := uint64(float64(4*6*g.BlocksPerDevice)*0.88) / 4
	var vols []wafl.VolSpec
	for i := 0; i < 4; i++ {
		vols = append(vols, wafl.VolSpec{Name: fmt.Sprintf("vol%d", i), Blocks: 2 * lunBlocks})
	}
	s := wafl.NewSystem([]wafl.GroupSpec{g, g, g, g}, vols, tun, seed)
	in := &instance{sys: s, obs: o}
	for _, v := range s.Agg.Vols() {
		in.luns = append(in.luns, v.CreateLUN("lun0", lunBlocks))
	}
	rng := rand.New(rand.NewSource(seed + 2))
	age(s, in.luns, rng, 0.4)

	groups := s.Agg.Groups()
	young := []block.Range{groups[2].Geometry().VBNRange(), groups[3].Geometry().VBNRange()}
	var agedUsed [2]float64
	for i, gr := range groups[:2] {
		r := gr.Geometry().VBNRange()
		agedUsed[i] = float64(s.Agg.Bitmap().CountUsed(r)) / float64(r.Len())
	}
	for _, l := range in.luns {
		_, err := s.PunchHoles(l, func(lba uint64) bool {
			p := l.Phys(lba)
			if young[0].Contains(p) || young[1].Contains(p) {
				return true
			}
			gi := 0
			if groups[1].Geometry().VBNRange().Contains(p) {
				gi = 1
			}
			if agedUsed[gi] <= 0.5 {
				return false
			}
			return rng.Float64() < 1-0.5/agedUsed[gi]
		})
		if err != nil {
			panic(fmt.Sprintf("benchmark: PunchHoles at a CP boundary: %v", err))
		}
	}
	s.CP()
	in.gen = genOLTP(in.luns, rng, workload.DefaultOLTP())
	return in.finish()
}

// buildMount sizes the Fig. 10 shape past the caches: each HDD group has
// 1024 AAs (TopAA seeds 512), and volume 0 spans 2048 virtual AAs (the HBPS
// lists 1000), beside 31 small volumes that each add a TopAA metafile to
// every CP and every mount.
func buildMount(seed int64, o *wafl.ObsOptions, shrink uint64) *instance {
	per := uint64(1<<17) / shrink
	g := wafl.GroupSpec{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: per, Media: aa.MediaHDD, StripesPerAA: per / 1024}
	const smallLUN = 4096
	bigLUN := uint64(float64(2*6*per) * 0.25)
	vols := []wafl.VolSpec{{Name: "vol0", Blocks: 2048 * aa.RAIDAgnosticBlocks / shrink}}
	for i := 1; i < 32; i++ {
		vols = append(vols, wafl.VolSpec{Name: fmt.Sprintf("vol%d", i), Blocks: 8 * aa.RAIDAgnosticBlocks})
	}
	s := wafl.NewSystem([]wafl.GroupSpec{g, g}, vols, baseTunables(o), seed)
	in := &instance{sys: s, obs: o}
	for i, v := range s.Agg.Vols() {
		blocks := uint64(smallLUN)
		if i == 0 {
			blocks = bigLUN
		}
		in.luns = append(in.luns, v.CreateLUN("lun0", blocks))
	}
	rng := rand.New(rand.NewSource(seed + 3))
	age(s, in.luns, rng, 0.25)
	in.gen = genOverwrite(in.luns, rng, 1)
	return in.finish()
}

// mountChunk is the number of overwrites before each CP of a mount cycle:
// few, so that the mounts and the 34 TopAA saves per CP, not the write
// path, take most of the host time.
const mountChunk = 1024

// roundMountCycle is one mount cycle: a short burst of overwrites and its
// CP, a TopAA-seeded remount, the first CP on the seed, the background fill
// the seed defers, then a bitmap-walk remount. The next round's CP is the
// first CP after the walk.
func roundMountCycle(d *driver, _ int) {
	d.ops(mountChunk)
	d.cp()
	d.remount(true)
	d.ops(mountChunk)
	d.cp()
	d.bgfill()
	d.remount(false)
}

// snapChunk is the number of overwrites between the CPs of a snap_pipeline
// round.
const snapChunk = 2048

// buildSnap builds the pipelined, sharded configuration on SMR with AZCS:
// two volumes with one LUN each, delayed virtual frees with a per-CP
// budget, so snapshot deletions free blocks through the delayed-free HBPS.
func buildSnap(seed int64, o *wafl.ObsOptions, shrink uint64) *instance {
	tun := baseTunables(o)
	tun.Pipeline = true
	tun.AllocShards = 4
	tun.DelayedVirtFrees = true
	tun.DelayedFreeBudgetPerCP = 4096
	g := wafl.GroupSpec{
		DataDevices: 3, ParityDevices: 1, BlocksPerDevice: (1 << 17) / shrink,
		Media: aa.MediaSMR, ZoneBlocks: 16384 / shrink, AZCS: true,
	}
	lunBlocks := 120_000 / shrink
	vols := []wafl.VolSpec{{Name: "vol0", Blocks: 4 * lunBlocks}, {Name: "vol1", Blocks: 4 * lunBlocks}}
	s := wafl.NewSystem([]wafl.GroupSpec{g, g}, vols, tun, seed)
	in := &instance{sys: s, obs: o}
	for _, v := range s.Agg.Vols() {
		in.luns = append(in.luns, v.CreateLUN("lun0", lunBlocks))
	}
	rng := rand.New(rand.NewSource(seed + 4))
	age(s, in.luns, rng, 0.5)
	in.gen = genHotCold(in.luns, rng, workload.DefaultHotCold())
	return in.finish()
}

// roundSnap is one snapshot round: quiesce, snapshot both LUNs, delete the
// snapshots taken two rounds ago, then four chunks of skewed overwrites,
// each ending in a pipelined CP.
func roundSnap(d *driver, r int) {
	d.drain()
	for i := range d.in.luns {
		d.snapCreate(i, fmt.Sprintf("s%d", r))
	}
	if r >= 2 {
		for i := range d.in.luns {
			d.snapDelete(i, fmt.Sprintf("s%d", r-2))
		}
	}
	for c := 0; c < 4; c++ {
		d.ops(snapChunk)
		d.cp()
	}
}
