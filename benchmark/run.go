package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"waflfs/internal/aa"
	"waflfs/internal/device"
	"waflfs/internal/obs"
	"waflfs/internal/sim"
	"waflfs/internal/stats"
	"waflfs/internal/wafl"
)

// segments is the number of equal fixed-op parts a window is timed in;
// host_kops_per_s is the median over them. Noise on a shared host comes in
// bursts of a few hundred milliseconds, so the segments are short (~0.2 s,
// still a few GC cycles each) and many: the median ignores the bursts.
const segments = 50

// sizing fixes how much work one run does. Nothing in it depends on how
// fast the host is, so modeled numbers repeat exactly for a given seed.
type sizing struct {
	shrink   uint64 // divisor of device and LUN sizes (1, or 8 under -quick)
	segments int    // equal parts the window is timed in
	rounds   int    // measured rounds, a multiple of segments
	setups   int    // set-ups timed for setup_s, before and after the window
}

func sizeFor(w Workload, seconds int, quick bool) sizing {
	if quick {
		return sizing{shrink: 8, segments: 10, rounds: 10, setups: 1}
	}
	per := int(w.RoundsPerSecond*float64(seconds)/segments + 0.5)
	if per < 1 {
		per = 1
	}
	return sizing{shrink: 1, segments: segments, rounds: per * segments, setups: 5}
}

// MVA client model, as experiments.DefaultConfig: a 20-core server and
// closed-loop clients thinking 5 ms.
const (
	modelCores = 20
	modelThink = 5 * time.Millisecond
)

// Mount-time cost constants of experiments/fig10.go: a random 4 KiB
// metafile-block read from HDD, and the CPU cost of one cache insert.
const (
	mountBlockRead = 1 * time.Millisecond
	mountInsertCPU = 150 * time.Nanosecond
)

func modeledMountMS(ms wafl.MountStats) float64 {
	d := time.Duration(ms.TopAABlockReads+ms.BitmapPagesRead)*mountBlockRead +
		time.Duration(ms.CacheInserts)*mountInsertCPU
	return float64(d) / float64(time.Millisecond)
}

// mountSample is one timed Remount.
type mountSample struct {
	ns float64
	st wafl.MountStats
}

// driver issues the benchmark's calls into the program, one at a time on
// one goroutine (a closed loop with one client), timing each from outside.
type driver struct {
	in  *instance
	rec *recorder

	clientOps int
	calls     int // snapshot and remount calls
	checks    int
	failures  []string
	mounts    [2][]mountSample // [0] walk, [1] seeded
}

func (d *driver) fail(format string, args ...interface{}) {
	d.failures = append(d.failures, fmt.Sprintf(format, args...))
}

// check counts one post-run correctness check.
func (d *driver) check(name string, err error) {
	d.checks++
	if err != nil {
		d.fail("%s: %v", name, err)
	}
}

// ops generates and issues n client ops.
func (d *driver) ops(n int) {
	in, rec := d.in, d.rec
	for i := 0; i < n; i++ {
		o := in.gen()
		l := in.luns[o.lun]
		kind := spanRead
		if !o.read {
			kind = spanWrite
			for b := o.lba; b < o.lba+uint64(o.n); b++ {
				in.written[o.lun][b/64] |= 1 << (b % 64)
			}
		}
		var t0 int64
		if rec.traced {
			t0 = rec.now()
		}
		if o.read {
			in.sys.Read(l, o.lba, o.n)
		} else {
			in.sys.Write(l, o.lba, o.n)
		}
		if rec.traced {
			rec.op(kind, t0, rec.now())
		}
	}
	d.clientOps += n
}

func (d *driver) cp() { d.rec.call(spanCP, func() { d.in.sys.CP() }) }

// drain commits the in-flight generation of a pipelined system; on the
// classic path nothing is in flight and no span is recorded.
func (d *driver) drain() {
	if d.in.sys.InFlight() {
		d.rec.call(spanDrain, func() { d.in.sys.Drain() })
	}
}

func (d *driver) remount(seeded bool) {
	kind, i := spanRemountWalk, 0
	if seeded {
		kind, i = spanRemountSeeded, 1
	}
	var st wafl.MountStats
	d.rec.call(kind, func() { st = d.in.sys.Agg.Remount(seeded) })
	d.calls++
	last := d.rec.spans[len(d.rec.spans)-1]
	d.mounts[i] = append(d.mounts[i], mountSample{ns: float64(last.Dur()), st: st})
	if seeded && st.Fallbacks > 0 {
		d.fail("seeded remount fell back to a bitmap walk for %d spaces", st.Fallbacks)
	}
}

func (d *driver) bgfill() {
	d.rec.call(spanBGFill, func() { d.in.sys.Agg.CompleteBackgroundFill() })
}

func (d *driver) snapCreate(lun int, name string) {
	d.calls++
	d.rec.call(spanSnapCreate, func() {
		if _, err := d.in.sys.CreateSnapshot(d.in.luns[lun], name); err != nil {
			d.fail("CreateSnapshot %s: %v", name, err)
		}
	})
}

func (d *driver) snapDelete(lun int, name string) {
	d.calls++
	d.rec.call(spanSnapDelete, func() {
		if _, err := d.in.sys.DeleteSnapshot(d.in.luns[lun], name); err != nil {
			d.fail("DeleteSnapshot %s: %v", name, err)
		}
	})
}

// verify runs the post-window correctness checks. Each counts as one
// attempted operation in the result.
func (d *driver) verify() {
	in := d.in
	d.scrub()
	for _, v := range in.sys.Agg.Vols() {
		d.check("refcounts "+v.Name, v.CheckRefcounts())
	}
	var err error
	if vs := in.sys.Agg.WatchdogViolations(); len(vs) > 0 {
		err = fmt.Errorf("%d violations, first: %s", len(vs), vs[0])
	}
	d.check("watchdogs", err)
	for i, l := range in.luns {
		d.check("written "+l.Name, d.checkWritten(i))
	}
}

func (d *driver) scrub() {
	var rep wafl.ScrubReport
	d.rec.call(spanScrub, func() { rep = d.in.sys.Agg.Scrub() })
	var err error
	if !rep.Clean() {
		err = fmt.Errorf("%s", rep)
	}
	d.check("scrub", err)
}

// checkWritten verifies that every LBA the benchmark wrote still reads back
// as written and that both of its block numbers are allocated.
func (d *driver) checkWritten(i int) error {
	l := d.in.luns[i]
	vol := d.in.sys.Agg.Vols()[i]
	for lba := uint64(0); lba < l.Blocks(); lba++ {
		if d.in.written[i][lba/64]&(1<<(lba%64)) == 0 {
			continue
		}
		switch {
		case !l.Written(lba):
			return fmt.Errorf("LBA %d lost", lba)
		case !d.in.sys.Agg.Bitmap().Test(l.Phys(lba)):
			return fmt.Errorf("LBA %d: physical %v not allocated", lba, l.Phys(lba))
		case !vol.Bitmap().Test(l.Virt(lba)):
			return fmt.Errorf("LBA %d: virtual %v not allocated", lba, l.Virt(lba))
		}
	}
	return nil
}

// modelState is every modeled quantity of the program's public counters
// that a window's metrics are computed from. Cumulative ones are read at
// both ends of the window and subtracted; the group, volume and allocator
// measurement counters are zeroed by ResetMetrics at window start.
type modelState struct {
	c        wafl.Counters
	busy     []time.Duration
	ftl      device.FTLStats
	full     uint64 // full stripes written
	part     uint64 // partial stripes written
	writeIOs uint64 // data-device write chains
	pipe     wafl.PipelineStats
	smr      uint64 // SMR interventions
	reg      obs.Snapshot
	groups   []wafl.GroupMetrics
	vols     []wafl.SpaceMetrics
	stalls   uint64
	pending  int // delayed frees queued
	series   int // tsdb series
}

func readModel(in *instance) modelState {
	s := in.sys
	m := modelState{c: s.Counters(), ftl: s.FTLTotals(), pipe: s.PipelineStats(), reg: s.Registry().Snapshot()}
	for _, times := range s.DeviceBusyTimes() {
		m.busy = append(m.busy, times...)
	}
	for _, g := range s.Agg.Groups() {
		rs := g.RAIDStats()
		m.full += rs.FullStripes
		m.part += rs.PartialStripes
		m.writeIOs += rs.WriteIOs
		for _, dev := range g.Devices() {
			if smr, ok := dev.(*device.SMR); ok {
				m.smr += smr.Interventions()
			}
		}
		m.groups = append(m.groups, g.Metrics())
	}
	for _, v := range s.Agg.Vols() {
		m.vols = append(m.vols, v.Metrics())
		m.pending += v.PendingFrees()
	}
	for _, ap := range s.Agg.AllocProfiles() {
		m.stalls += ap.Stalls
	}
	if in.obs != nil {
		m.series = in.obs.TSDB.NumSeries()
	}
	return m
}

// pass is one build-age-measure-verify execution of a workload.
type pass struct {
	seed int64
	sz   sizing

	d        *driver
	mark     int       // coarse spans recorded when the window ended
	setups   []float64 // seconds
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	liveHeap uint64
	m0, m1   modelState
}

// passOpts selects what a pass records beside its timings.
type passOpts struct {
	traced bool
	// profile, when set, receives a CPU profile of the window.
	profile string
}

// runPass builds, ages, measures and verifies one workload. A panic inside
// the program is recovered and reported as a failed operation.
func runPass(w Workload, seed int64, sz sizing, o passOpts) (p *pass) {
	p = &pass{seed: seed, sz: sz, d: &driver{}}
	defer func() {
		if r := recover(); r != nil {
			p.d.fail("panic: %v", r)
		}
	}()
	d := p.d

	// Set-up is timed sz.setups times: half before the window, the last of
	// which is the system measured, and the rest after it, so that the
	// samples span the whole run and a slow phase of the host shorter than
	// the run does not catch all of them.
	setup := func() *instance {
		runtime.GC()
		var sinks *wafl.ObsOptions
		if w.Obs {
			sinks = armedObs(seed)
		}
		t := time.Now()
		in := w.build(seed, sinks, sz.shrink)
		p.setups = append(p.setups, time.Since(t).Seconds())
		return in
	}
	for len(p.setups) < (sz.setups+1)/2 {
		d.in = nil
		d.in = setup()
	}
	in := d.in

	// Warm-up: a tenth of the window runs unmeasured, so that what aging
	// left transient (holes punched into LUNs, empty snapshot history,
	// cold allocator cursors) has settled before anything is timed.
	warm := sz.rounds / 10
	d.rec = newRecorder(false, 0)
	for r := 0; r < warm; r++ {
		w.round(d, r)
	}
	d.drain()
	d.clientOps, d.calls, d.mounts = 0, 0, [2][]mountSample{}

	in.sys.ResetMetrics()
	d.rec = newRecorder(o.traced, sz.rounds*w.OpsPerRound)
	p.m0 = readModel(in)
	defer startProfile(o.profile)()
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	per := sz.rounds / sz.segments
	for seg := 0; seg < sz.segments; seg++ {
		d.rec.beginSegment()
		for r := seg * per; r < (seg+1)*per; r++ {
			w.round(d, warm+r)
		}
		if seg == sz.segments-1 {
			d.drain()
		}
		d.rec.endSegment()
	}
	runtime.ReadMemStats(&p.mem1)
	p.mark = len(d.rec.spans)
	p.m1 = readModel(in)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.liveHeap = ms.HeapAlloc

	d.verify()
	for len(p.setups) < sz.setups {
		setup()
	}
	return p
}

// attempted counts client ops, snapshot and remount calls, and checks.
func (p *pass) attempted() int { return p.d.clientOps + p.d.calls + p.d.checks }

func (p *pass) failed() int { return len(p.d.failures) }

// windowDurations returns the durations (ns) of the coarse spans of the
// given kinds recorded in the window.
func (p *pass) windowDurations(kinds ...int) []float64 {
	var out []float64
	for _, s := range p.d.rec.spans[:p.mark] {
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, float64(s.Dur()))
			}
		}
	}
	return out
}

// centers converts the window's demands into MVA service centres: the CPU
// over the server's cores, and one centre per device.
func (p *pass) centers() []sim.Center {
	c := p.m1.c.Sub(p.m0.c)
	ops := time.Duration(c.Ops)
	devParallel := time.Duration(1)
	if p.d.in.media() == aa.MediaSSD {
		devParallel = 4 // an enterprise SSD services many commands at once
	}
	cs := []sim.Center{{Name: "cpu", Demand: c.CPUTime / ops / modelCores}}
	for i := range p.m1.busy {
		cs = append(cs, sim.Center{
			Name:   fmt.Sprintf("dev%d", i),
			Demand: (p.m1.busy[i] - p.m0.busy[i]) / ops / devParallel,
		})
	}
	return cs
}

const msPerNS = 1e-6

// segmentSamples returns, per segment of the window, the client ops per
// host millisecond (= kops/s) and the median host time of a CP or Drain
// call in milliseconds.
func (p *pass) segmentSamples() (kops, cpMS []float64) {
	segOps := float64(p.d.clientOps) / float64(p.sz.segments)
	var cps []float64
	flush := func() {
		if len(cps) > 0 {
			cpMS = append(cpMS, median(cps)*msPerNS)
			cps = cps[:0]
		}
	}
	for _, s := range p.d.rec.spans[:p.mark] {
		switch s.kind {
		case spanSegment:
			flush()
			kops = append(kops, segOps/float64(s.Dur())*1e6)
		case spanCP, spanDrain:
			cps = append(cps, float64(s.Dur()))
		}
	}
	flush()
	return kops, cpMS
}

// quiet reduces per-segment samples of a host-clock metric to the value of
// an undisturbed segment: the 90th percentile of a rate, the 10th of a
// time. Noise on the shared reference host is one-sided and comes in phases
// of several seconds during which everything runs 30-50% slower, often for
// more than half of a run, so the median over segments moves by 10-20%
// between runs of the same binary while the quiet decile moves by 2-4%.
// Every segment is long enough (>= 0.2 s, several GC cycles) to carry the
// program's own periodic costs, so the quiet decile still pays them.
func quiet(xs []float64, rate bool) float64 {
	if rate {
		return stats.Percentile(xs, 90)
	}
	return stats.Percentile(xs, 10)
}

// endToEnd computes the metrics a user of the simulator sees.
func (p *pass) endToEnd() Metrics {
	m := Metrics{}
	d := p.d
	m.set("setup_s", median(p.setups), len(p.setups))

	kops, cpMS := p.segmentSamples()
	m.set("host_kops_per_s", quiet(kops, true), len(kops))
	m.set("cp_host_ms_p50", quiet(cpMS, false), len(cpMS))
	m.set("host_allocs_per_op", float64(p.mem1.Mallocs-p.mem0.Mallocs)/float64(d.clientOps), 0)
	m.set("live_heap_mb", float64(p.liveHeap)/1e6, 0)

	c := p.m1.c.Sub(p.m0.c)
	res := sim.Sweep(p.centers(), modelThink, []int{64, 512})
	m.set("modeled_peak_kops", res[1].Throughput/1e3, 0)
	m.set("modeled_lat_ms_64c", float64(res[0].Latency)*msPerNS, 0)
	m.set("modeled_cpu_us_per_op", float64(c.CPUTime)/float64(c.Ops)/1e3, 0)
	m.set("modeled_meta_pages_per_kop", float64(c.MetafilePages+c.TopAABlocks)/float64(c.Ops)*1e3, 0)

	return m
}

// startProfile starts a CPU profile into path ("" for none) and returns the
// function that stops it.
func startProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		panic(err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			panic(err)
		}
	}
}

// profilePath names the CPU profile of a traced run.
func profilePath(outDir, workload string) string {
	return filepath.Join(outDir, "cpu-"+workload+".prof")
}
