package wafl

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/control"
	"waflfs/internal/obs"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
)

// controlEquivRun drives one clean (fault-free) workload with the SLO
// portfolio armed, optionally with the stock control portfolio on top.
func controlEquivRun(t *testing.T, armed bool) (*System, *tsdb.Store, *slo.Set) {
	t.Helper()
	tun := DefaultTunables()
	tun.CPEveryOps = 1 << 30
	tun.DelayedVirtFrees = true
	store := tsdb.NewStore(tsdb.Config{Capacity: 256, HistBuckets: tsdb.SuffixFilter(".lat_ns")})
	sloSet := slo.NewSet(slo.DefaultSpecs())
	o := &ObsOptions{
		Name:    "arm",
		TSDB:    store,
		SLO:     sloSet,
		OpTrace: optrace.NewRecorder(optrace.Config{Rate: 4, Capacity: 128, Seed: 11}),
	}
	if armed {
		o.Control = control.NewSet(control.DefaultPolicies())
	}
	tun.Obs = o
	s := NewSystem(testSpecs(), []VolSpec{{Name: "va", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 11)
	lun := s.Agg.Vols()[0].CreateLUN("lun", 40000)
	for lba := uint64(0); lba < 40000; lba++ {
		s.Write(lun, lba, 1)
		if s.pendingBlocks >= 8192 {
			s.CP()
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8000; i++ {
		s.Write(lun, uint64(rng.Intn(40000)), 1)
		if s.pendingBlocks >= 8192 {
			s.CP()
		}
	}
	s.CP()
	return s, store, sloSet
}

// The do-no-harm contract: on a clean run the stock portfolio never
// actuates, and an armed-but-idle controller leaves every other artifact —
// counters, stable metrics, SLO status, tsdb contents — byte-identical to
// Control=nil. Only the control.* namespaces themselves may differ.
func TestControlOffEquivalence(t *testing.T) {
	sOn, tsOn, sloOn := controlEquivRun(t, true)
	sOff, tsOff, sloOff := controlEquivRun(t, false)

	ctl := sOn.Agg.obsOpts.Control
	tot := ctl.Totals()
	if tot.Evaluations == 0 {
		t.Fatal("armed controller never evaluated (no instances resolved?)")
	}
	if tot.Actuations != 0 || tot.Suppressed != 0 {
		var b strings.Builder
		_ = ctl.WriteJSON(&b)
		t.Fatalf("stock portfolio acted on a clean run: %+v\n%s", tot, b.String())
	}
	if sOff.Agg.ctl != nil {
		t.Fatal("Control=nil armed an engine")
	}

	if sOn.Counters() != sOff.Counters() {
		t.Fatalf("counters diverged:\narmed: %+v\noff:   %+v", sOn.Counters(), sOff.Counters())
	}

	// Stable snapshots match outside the control.* scalar family (which is
	// registered unconditionally and reads 0 when off).
	strip := func(snap obs.Snapshot) []obs.Metric {
		out := make([]obs.Metric, 0, len(snap.Metrics))
		for _, m := range snap.Metrics {
			if strings.HasPrefix(m.Name, "control.") {
				continue
			}
			out = append(out, m)
		}
		return out
	}
	mOn, mOff := strip(sOn.Registry().StableSnapshot()), strip(sOff.Registry().StableSnapshot())
	if !reflect.DeepEqual(mOn, mOff) {
		for i := range mOn {
			if i < len(mOff) && !reflect.DeepEqual(mOn[i], mOff[i]) {
				t.Errorf("metric %q: armed %+v, off %+v", mOn[i].Name, mOn[i], mOff[i])
			}
		}
		t.Fatalf("stable snapshots diverged outside control.* (%d vs %d metrics)", len(mOn), len(mOff))
	}

	// SLO evaluation is upstream of the controller and must be untouched.
	var jOn, jOff strings.Builder
	if err := sloOn.WriteJSON(&jOn); err != nil {
		t.Fatal(err)
	}
	if err := sloOff.WriteJSON(&jOff); err != nil {
		t.Fatal(err)
	}
	if jOn.String() != jOff.String() {
		t.Fatal("slo status diverged between armed and off")
	}

	// The stores match series-for-series outside "arm.control.*" (the state,
	// signal, and knob series an idle controller still writes).
	stripDump := func(dump []tsdb.SeriesDump) []tsdb.SeriesDump {
		out := make([]tsdb.SeriesDump, 0, len(dump))
		for _, d := range dump {
			if strings.HasPrefix(d.Name, "arm.control.") {
				continue
			}
			out = append(out, d)
		}
		return out
	}
	dOn, dOff := stripDump(tsOn.Dump()), stripDump(tsOff.Dump())
	if !reflect.DeepEqual(dOn, dOff) {
		for i := range dOn {
			if i < len(dOff) && !reflect.DeepEqual(dOn[i], dOff[i]) {
				t.Errorf("series %q diverged between armed and off", dOn[i].Name)
			}
		}
		t.Fatalf("tsdb contents diverged outside arm.control.* (%d vs %d series)", len(dOn), len(dOff))
	}

	// The idle controller still published its knob series (full provenance
	// even when nothing fires), at the untouched default values.
	if v, ok := tsOn.ValueAt("arm.control.knob."+control.KnobDelayedBudget, sOn.Counters().CPs); !ok ||
		v != float64(DefaultTunables().DelayedFreeBudgetPerCP) {
		t.Errorf("idle knob series delayed_budget = %v,%v", v, ok)
	}
	if _, ok := tsOff.ValueAt("arm.control.knob."+control.KnobDelayedBudget, sOff.Counters().CPs); ok {
		t.Error("Control=nil wrote control series")
	}
}

// The alloc_batch knob takes effect on the live pick queues, from their next
// staging move — not at the next remount or cleaning pass. Observed from
// outside the queue: with 4 shards a RAID group's queues hold at most
// 4×2×batch entries, so its heap can only fall below NumAAs−1−4×2×8 once
// batches larger than the original 8 are being staged.
func TestAllocBatchKnobIsLive(t *testing.T) {
	tun := DefaultTunables()
	tun.AllocShards = 4
	tun.CPEveryOps = 1 << 30
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 8 * aa.RAIDAgnosticBlocks}}, tun, 5)
	lun := s.Agg.Vols()[0].CreateLUN("l", 150000)
	g := s.Agg.Groups()[0]
	floor := g.Topology().NumAAs() - 1 - 4*2*defaultAllocBatch
	minHeap := func(from, to uint64) int {
		low := g.Cache().Len()
		for lba := from; lba < to; lba += 4 {
			s.Write(lun, lba, 4)
			if s.pendingBlocks >= 1024 {
				s.CP()
				low = min(low, g.Cache().Len())
			}
		}
		return low
	}
	if low := minHeap(0, 50000); low < floor {
		t.Fatalf("rg0 heap fell to %d at batch %d, below the %d its queues can leave", low, defaultAllocBatch, floor)
	}
	if v, ok := s.Actuator().SetKnob(control.KnobAllocBatch, 16); !ok || v != 16 {
		t.Fatalf("SetKnob(alloc_batch, 16) = %v,%v", v, ok)
	}
	if low := minHeap(50000, 150000); low >= floor {
		t.Errorf("rg0 heap never fell below %d (reached %d): no queue staged more than the old %d-entry batches",
			floor, low, defaultAllocBatch)
	}
	// At queue depth 0 the knob is accepted and inert: nothing is staged.
	s0 := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 8 * aa.RAIDAgnosticBlocks}}, DefaultTunables(), 5)
	s0.Actuator().SetKnob(control.KnobAllocBatch, 16)
	l0 := s0.Agg.Vols()[0].CreateLUN("l", 8000)
	for lba := uint64(0); lba < 8000; lba += 4 {
		s0.Write(l0, lba, 4)
	}
	s0.CP()
	if n, _ := s0.Registry().Value("rg0.alloc.staged_entries"); n != 0 || s0.Agg.groups[0].q.HeldCount() != 0 {
		t.Errorf("depth-0 queue staged %d entries, holds %d", n, s0.Agg.groups[0].q.HeldCount())
	}
}
