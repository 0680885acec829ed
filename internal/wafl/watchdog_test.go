package wafl

import (
	"math/rand"
	"strings"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

// watchdogSystem builds a small system with the online watchdogs armed at
// full sample width, fills a volume, and commits one CP so caches, deltas,
// and delayed-free queues all hold settled state.
func watchdogSystem(t *testing.T, strict bool) (*System, *LUN) {
	t.Helper()
	tun := DefaultTunables()
	tun.CPEveryOps = 1 << 30
	tun.DelayedVirtFrees = true
	tun.Obs = &ObsOptions{Name: "wd", Watchdogs: true}
	s := NewSystem(testSpecs(), []VolSpec{{Name: "v", Blocks: 16 * aa.RAIDAgnosticBlocks}}, tun, 7)
	s.Agg.wd.sample = 1 << 20 // cover every AA each CP
	if strict {
		strictWatchdogs(t, s)
	}
	lun := s.Agg.Vols()[0].CreateLUN("l", 20000)
	for lba := uint64(0); lba < 20000; lba++ {
		s.Write(lun, lba, 1)
	}
	s.CP()
	return s, lun
}

// strictWatchdogs promotes every later watchdog violation of s to a panic, so
// a test fails hard at the exact CP an invariant broke; nothing may have
// been violated before the call.
func strictWatchdogs(t *testing.T, s *System) {
	t.Helper()
	if v := s.Agg.WatchdogViolations(); len(v) > 0 {
		t.Fatalf("watchdog violations before the strict switch: %v", v)
	}
	s.Agg.wd.strict = true
}

func wdValue(t *testing.T, s *System, name string) uint64 {
	t.Helper()
	n, ok := s.Registry().Value(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return n
}

// A healthy workload — overwrites, delayed frees, remounts — must run under
// strict watchdogs (any violation would panic) while all three monitor
// classes actually perform checks.
func TestWatchdogCleanRunStrict(t *testing.T) {
	s, lun := watchdogSystem(t, true)
	rng := rand.New(rand.NewSource(3))
	for cp := 0; cp < 6; cp++ {
		for i := 0; i < 3000; i++ {
			s.Write(lun, uint64(rng.Intn(20000)), 1)
		}
		s.CP()
	}
	s.Agg.Remount(true)
	for i := 0; i < 1000; i++ {
		s.Write(lun, uint64(rng.Intn(20000)), 1)
	}
	s.CP()

	for _, m := range []string{
		"watchdog.checks",
		"watchdog.conservation_checks",
		"watchdog.score_checks",
		"watchdog.pick_checks",
	} {
		if wdValue(t, s, m) == 0 {
			t.Errorf("%s = 0, want > 0", m)
		}
	}
	if n := wdValue(t, s, "watchdog.violations"); n != 0 {
		t.Errorf("watchdog.violations = %d: %v", n, s.Agg.WatchdogViolations())
	}
}

// Seeded corruption of a heap-cached AA score must trip the score (or
// pick-floor) monitor on the next CP — the tamper test proving the
// watchdogs actually read the state they claim to guard.
func TestWatchdogFiresOnHeapScoreCorruption(t *testing.T) {
	s, lun := watchdogSystem(t, false)
	g := s.Agg.groups[0]
	entries := g.cache.Entries()
	if len(entries) == 0 {
		t.Fatal("group cache is empty")
	}
	e := entries[len(entries)/2]
	g.cache.Update(e.ID, e.Score+97) // cached score no longer bitmap-derived

	for i := 0; i < 500; i++ {
		s.Write(lun, uint64(i), 1)
	}
	s.CP()

	if n := wdValue(t, s, "watchdog.violations"); n == 0 {
		t.Fatal("corrupted heap score went undetected")
	}
	if wdValue(t, s, "watchdog.score_violations")+wdValue(t, s, "watchdog.pick_violations") == 0 {
		t.Error("violation not attributed to the score or pick-floor class")
	}
	if len(s.Agg.WatchdogViolations()) == 0 {
		t.Error("violation log is empty")
	}
}

// Seeded corruption of an HBPS listed placement must trip the score (or
// pick-floor) monitor: the listed bin no longer matches the bitmap-derived
// score's bin.
func TestWatchdogFiresOnHBPSCorruption(t *testing.T) {
	s, lun := watchdogSystem(t, false)
	sp := s.Agg.vols[0].space
	l := sp.cache.ListLen()
	if l == 0 {
		t.Fatal("HBPS list is empty")
	}
	id, _ := sp.cache.ListedAt(l - 1)
	real := sp.aaScore(id) - uint32(sp.deltas.get(id))
	// Move the item far enough that its bin changes; it stays listed.
	sp.cache.Update(id, real, real/2+1)

	for i := 0; i < 500; i++ {
		s.Write(lun, uint64(i), 1)
	}
	s.CP()

	if n := wdValue(t, s, "watchdog.violations"); n == 0 {
		t.Fatal("corrupted HBPS placement went undetected")
	}
	if wdValue(t, s, "watchdog.score_violations")+wdValue(t, s, "watchdog.pick_violations") == 0 {
		t.Error("violation not attributed to the score or pick-floor class")
	}
}

// A bitmap bit set behind the allocator's back breaks free-block
// conservation: used blocks no longer equal refcounted plus delayed.
func TestWatchdogFiresOnConservationBreak(t *testing.T) {
	s, _ := watchdogSystem(t, false)
	v := s.Agg.vols[0]
	space := v.space.topo.Space()
	leaked := block.InvalidVBN
	for p := space.Start; p < space.End; p++ {
		if !v.bm.Test(p) {
			leaked = p
			break
		}
	}
	if leaked == block.InvalidVBN {
		t.Fatal("volume has no free block to leak")
	}
	v.bm.Set(leaked)
	s.CP()

	if n := wdValue(t, s, "watchdog.conservation_violations"); n == 0 {
		t.Fatal("leaked block went undetected")
	}
}

// A strict watchdog promotes the first violation to a panic naming the
// watchdog, so tests fail hard at the exact CP the invariant broke.
func TestWatchdogStrictPanics(t *testing.T) {
	s, lun := watchdogSystem(t, true)
	g := s.Agg.groups[0]
	entries := g.cache.Entries()
	if len(entries) == 0 {
		t.Fatal("group cache is empty")
	}
	e := entries[len(entries)/2]
	g.cache.Update(e.ID, e.Score+31)

	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("strict watchdog did not panic on corruption")
		}
		msg, ok := rec.(string)
		if !ok || !strings.Contains(msg, "watchdog") {
			t.Fatalf("panic value = %v, want a watchdog message", rec)
		}
	}()
	for i := 0; i < 500; i++ {
		s.Write(lun, uint64(i), 1)
	}
	s.CP()
}
