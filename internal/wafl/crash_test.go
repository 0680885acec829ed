package wafl

import (
	"math/rand"
	"reflect"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/faultinject"
)

// crashedSystem builds a system with the plan armed (and an object pool, so
// every CP phase occurs), lands a clean CP, churns, then runs the CP the
// plan crashes. The caller remounts and inspects recovery.
func crashedSystem(t *testing.T, plan *faultinject.Plan, workers int) (*System, *LUN) {
	t.Helper()
	tun := DefaultTunables()
	tun.CPEveryOps = 1 << 30 // CPs driven explicitly
	tun.Workers = workers
	tun.Faults = plan
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 7)
	s.Agg.AddObjectPool(PoolSpec{Blocks: 2 * aa.RAIDAgnosticBlocks})
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 60000)
	for lba := uint64(0); lba < 60000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP() // CP 1: clean; every metafile lands
	s.TierOut(lun, func(lba uint64) bool { return lba < 4096 })
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		s.Write(lun, uint64(rng.Intn(60000)), 1)
	}
	s.CP() // CP 2: the plan's crash point fires
	return s, lun
}

// spacesOf counts the AA-cache spaces a remount rebuilds.
func spacesOf(s *System) int {
	return len(s.Agg.groups) + len(s.Agg.vols) + 1 // +1: the pool
}

func TestCrashAtEveryPhaseRecoversWithoutDivergence(t *testing.T) {
	for _, phase := range faultinject.CPPhases() {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			plan := &faultinject.Plan{Seed: 3, CrashPhase: phase, CrashCP: 2, Fault: faultinject.FaultTorn}
			s, lun := crashedSystem(t, plan, 0)
			if !s.Agg.Injector().Crashed() {
				t.Fatalf("crash point %q never fired", phase)
			}
			ms := s.Agg.Remount(true)
			if got := ms.MissingFallbacks + ms.StaleFallbacks + ms.TornFallbacks + ms.DamageFallbacks; got != ms.Fallbacks {
				t.Fatalf("fallback classes sum to %d, Fallbacks = %d", got, ms.Fallbacks)
			}
			switch phase {
			case faultinject.PhaseAlloc:
				// Crash before any save: every metafile is stale or torn.
				if ms.Fallbacks != spacesOf(s) {
					t.Fatalf("alloc-phase crash: fallbacks = %d, want %d", ms.Fallbacks, spacesOf(s))
				}
			case faultinject.PhaseCommit:
				// Crash after all saves: a clean CP.
				if ms.Fallbacks != 0 {
					t.Fatalf("commit-phase crash: fallbacks = %d, want 0", ms.Fallbacks)
				}
			}
			if rep := s.Agg.Scrub(); !rep.Clean() {
				t.Fatalf("scrub after recovery: %s", rep)
			}
			// The recovered system keeps working: background fill, more
			// writes, a clean CP, and a still-clean scrub.
			s.Agg.CompleteBackgroundFill()
			for i := 0; i < 2000; i++ {
				s.Write(lun, uint64(i*7%60000), 1)
			}
			s.CP()
			if s.Agg.Injector().Crashes() != 1 {
				t.Fatalf("crashes = %d after recovery, want 1", s.Agg.Injector().Crashes())
			}
			if rep := s.Agg.Scrub(); !rep.Clean() {
				t.Fatalf("scrub after post-recovery CP: %s", rep)
			}
		})
	}
}

func TestCrashRecoveryWithMediaDamage(t *testing.T) {
	cases := []struct {
		fault faultinject.Kind
		// reconstructed+fallback expectations are load-order dependent, so
		// only the invariants are pinned here.
	}{
		{faultinject.FaultBitRot},
		{faultinject.FaultBitRotMulti},
		{faultinject.FaultReadErr},
		{faultinject.FaultReadErrHard},
	}
	for _, tc := range cases {
		t.Run(tc.fault.String(), func(t *testing.T) {
			plan := &faultinject.Plan{Seed: 5, CrashPhase: faultinject.PhaseTopAAVols, CrashCP: 2, Fault: tc.fault}
			s, _ := crashedSystem(t, plan, 0)
			dmg, err := s.Agg.ApplyPlannedDamage()
			if err != nil {
				t.Fatal(err)
			}
			if dmg.Target == "" {
				t.Fatal("no damage target chosen")
			}
			ms := s.Agg.Remount(true)
			switch tc.fault {
			case faultinject.FaultBitRot, faultinject.FaultReadErr:
				// One bad chunk: parity rebuilds it unless the metafile was
				// already a fallback for staleness.
				if ms.Reconstructed+ms.Fallbacks == 0 {
					t.Fatal("single-chunk damage left no trace in MountStats")
				}
				if ms.DamageFallbacks != 0 {
					t.Fatalf("single-chunk damage classified as unrecoverable: %+v", ms)
				}
			case faultinject.FaultBitRotMulti, faultinject.FaultReadErrHard:
				// Beyond single-parity reconstruction: the damaged space must
				// have fallen back (unless staleness got there first).
				if ms.Fallbacks == 0 {
					t.Fatalf("multi-chunk damage produced no fallback: %+v", ms)
				}
			}
			if rep := s.Agg.Scrub(); !rep.Clean() {
				t.Fatalf("scrub after damage recovery: %s", rep)
			}
		})
	}
}

// TestCrashRecoveryDeterministicAcrossWorkers pins the PR's determinism
// contract: MountStats, the scrub report, and the store's recovery counters
// are byte-identical at any worker width.
func TestCrashRecoveryDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		Stats MountStats
		Scrub ScrubReport
		Rec   interface{}
	}
	run := func(workers int) outcome {
		plan := &faultinject.Plan{Seed: 11, CrashPhase: faultinject.PhaseFlush, CrashCP: 2, Fault: faultinject.FaultBitRot}
		s, _ := crashedSystem(t, plan, workers)
		if _, err := s.Agg.ApplyPlannedDamage(); err != nil {
			t.Fatal(err)
		}
		ms := s.Agg.Remount(true)
		return outcome{Stats: ms, Scrub: s.Agg.Scrub(), Rec: s.Agg.Store().Recovery()}
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("recovery diverged across worker widths:\n 1: %+v\n 8: %+v", serial, wide)
	}
	if serial.Stats.Fallbacks == 0 && serial.Stats.Reconstructed == 0 {
		t.Fatal("scenario exercised no recovery path")
	}
}

// TestMountStatsPinsFailedProbeCharges is the regression pin for the
// probe-charging bugfix: a missing metafile costs one block read, so a
// first-boot mount (no CP yet) charges exactly one read per space.
func TestMountStatsPinsFailedProbeCharges(t *testing.T) {
	tun := DefaultTunables()
	tun.CPEveryOps = 1 << 30
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 9)
	s.Agg.AddObjectPool(PoolSpec{Blocks: 2 * aa.RAIDAgnosticBlocks})

	ms := s.Agg.Remount(true)
	if want := uint64(spacesOf(s)); ms.TopAABlockReads != want {
		t.Fatalf("first-boot TopAA reads = %d, want %d (one failed probe per space)", ms.TopAABlockReads, want)
	}
	if ms.MissingFallbacks != spacesOf(s) || ms.Fallbacks != spacesOf(s) {
		t.Fatalf("first-boot fallbacks = %+v, want all %d missing", ms, spacesOf(s))
	}

	// After a CP every metafile exists: 1 block per group, 2 per agnostic
	// space (HBPS pages), and zero failed probes.
	lun := s.Agg.Vols()[0].CreateLUN("lun0", 30000)
	for lba := uint64(0); lba < 30000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	ms = s.Agg.Remount(true)
	want := uint64(len(s.Agg.groups)) + 2*uint64(len(s.Agg.vols)) + 2
	if ms.TopAABlockReads != want {
		t.Fatalf("seeded-mount TopAA reads = %d, want %d", ms.TopAABlockReads, want)
	}
	if ms.Fallbacks != 0 {
		t.Fatalf("seeded mount fell back: %+v", ms)
	}
}

// TestScrubDetectsDivergence proves the scrub is a real oracle: a cache
// score that disagrees with the bitmap is reported, for both cache types.
func TestScrubDetectsDivergence(t *testing.T) {
	s, _ := agedSystem(t, DefaultTunables(), 6)
	if rep := s.Agg.Scrub(); !rep.Clean() {
		t.Fatalf("baseline scrub not clean: %s", rep)
	}

	// Heap cache: shift one tracked AA's score.
	g := s.Agg.groups[0]
	e, ok := g.cache.Best()
	if !ok {
		t.Fatal("empty group cache")
	}
	g.cache.Update(e.ID, e.Score+1)
	rep := s.Agg.Scrub()
	if rep.Clean() {
		t.Fatal("scrub missed a heap-cache divergence")
	}
	if div := rep.Divergent(); div[0].Space != s.Agg.groups[0].key {
		t.Fatalf("divergence attributed to %q, want %q", div[0].Space, s.Agg.groups[0].key)
	}
	g.cache.Update(e.ID, e.Score) // restore

	// HBPS: pretend a delta exists that the bitmap never saw (large enough
	// to cross a histogram bin boundary).
	sp := s.Agg.vols[0].space
	sp.deltas.add(aa.ID(0), 4096)
	rep = s.Agg.Scrub()
	if rep.Clean() {
		t.Fatal("scrub missed an HBPS divergence")
	}
	if div := rep.Divergent(); div[0].Space != "v" {
		t.Fatalf("divergence attributed to %q, want %q", div[0].Space, "v")
	}
	sp.deltas.delete(aa.ID(0))
	if rep := s.Agg.Scrub(); !rep.Clean() {
		t.Fatalf("scrub not clean after restore: %s", rep)
	}
}
