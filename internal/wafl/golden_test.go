package wafl

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/obs"
	"waflfs/internal/obs/optrace"
	"waflfs/internal/obs/picks"
	"waflfs/internal/obs/slo"
	"waflfs/internal/obs/tsdb"
)

// cpEngineGolden pins one SHA-256 per (Pipeline, AllocShards) mode over
// every stream the CP engine feeds. The serial-equivalence suites compare a
// commit with itself (Workers=1 vs 8); these digests compare a commit with
// its parent, so a CP-engine refactor that claims byte-identity has to show
// it. A change that moves them on purpose re-records them and says why.
var cpEngineGolden = map[string]string{
	"pipeline=false,shards=0": "247e006ae0e07aecf460cff11afcb432dfe0032098f7cfd4ec13195f99983ee7",
	"pipeline=false,shards=4": "632b12569ddd7ffed601559d10400287cf94f25ba782e54965dac36549d63416",
	"pipeline=true,shards=0":  "51c8a3532bcbc96496a32781ac03f470526db653a5ef699b42613f19b1531a95",
	"pipeline=true,shards=4":  "b3ec341910a107fc8e8840bfcec2b98d7c9e2acbd5cf459c10b5a340d5367cc8",
}

// cpEngineDigest runs one seeded lifecycle — two volumes filled and
// overwritten, snapshot create/delete feeding delayed frees under a finite
// per-CP reclaim budget, a punch, a seeded remount, a final Drain — with
// every sink armed, and hashes what came out.
func cpEngineDigest(t *testing.T, pipeline bool, shards int) string {
	t.Helper()
	tracer := obs.NewTracer()
	var csv strings.Builder
	rec := obs.NewCSVRecorder(&csv)
	tun := DefaultTunables()
	tun.Workers = 1
	tun.CPEveryOps = 1 << 30
	tun.Pipeline = pipeline
	tun.AllocShards = shards
	tun.DelayedVirtFrees = true
	tun.DelayedFreeBudgetPerCP = 700
	tun.Obs = &ObsOptions{
		Name:            "gold",
		Tracer:          tracer,
		CSV:             rec,
		TSDB:            tsdb.NewStore(tsdb.Config{Capacity: 256, HistBuckets: tsdb.SuffixFilter(".lat_ns")}),
		Picks:           picks.NewRecorder(picks.DefaultConfig()),
		Watchdogs:       true,
		StrictWatchdogs: true,
		SLO:             slo.NewSet(slo.DefaultSpecs()),
		OpTrace:         optrace.NewRecorder(optrace.Config{Rate: 3, Capacity: 128, Seed: 14}),
	}
	s := NewSystem(testSpecs(), []VolSpec{
		{Name: "va", Blocks: 8 * aa.RAIDAgnosticBlocks},
		{Name: "vb", Blocks: 8 * aa.RAIDAgnosticBlocks},
		{Name: "idle", Blocks: 2 * aa.RAIDAgnosticBlocks},
	}, tun, 14)
	lunA := s.Agg.Vols()[0].CreateLUN("a", 40000)
	lunB := s.Agg.Vols()[1].CreateLUN("b", 40000)
	s.Agg.Vols()[2].CreateLUN("i", 1000) // never written: a space with empty banks every CP

	rng := rand.New(rand.NewSource(14))
	overwrite := func(n int) {
		for i := 0; i < n; i++ {
			s.Write(lunA, uint64(rng.Intn(40000)), 1)
			if i%3 == 0 {
				s.Write(lunB, uint64(rng.Intn(39999)), 2)
			}
			if s.pendingBlocks >= 2048 {
				s.CP()
			}
		}
		s.CP()
	}
	for lba := uint64(0); lba < 40000; lba += 4 {
		s.Write(lunA, lba, 4)
		s.Write(lunB, lba, 4)
		if s.pendingBlocks >= 8192 {
			s.CP()
		}
	}
	overwrite(6000)
	s.Drain()
	if _, err := s.CreateSnapshot(lunA, "s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSnapshot(lunB, "s1"); err != nil {
		t.Fatal(err)
	}
	overwrite(9000) // COW under the snapshots: nothing frees yet
	s.Drain()
	if _, err := s.DeleteSnapshot(lunA, "s1"); err != nil { // bulk free into the delayed queue
		t.Fatal(err)
	}
	overwrite(5000) // reclaim under the finite budget, backlog carried across CPs
	s.Drain()
	if _, err := s.PunchHoles(lunB, func(lba uint64) bool { return lba%7 == 0 }); err != nil {
		t.Fatal(err)
	}
	s.CP() // a boundary with frees but nothing to allocate
	s.Drain()
	s.Agg.Remount(true)
	overwrite(5000)
	for i := 0; i < 200; i++ {
		s.Read(lunA, uint64(rng.Intn(39000)), 8)
	}
	s.Drain()
	if _, err := s.DeleteSnapshot(lunB, "s1"); err != nil {
		t.Fatal(err)
	}
	overwrite(3000)
	s.Drain()

	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Agg.Vols() {
		if err := v.CheckRefcounts(); err != nil {
			t.Fatal(err)
		}
	}
	if rep := s.Agg.Scrub(); !rep.Clean() {
		t.Fatalf("scrub: %v", rep)
	}

	h := sha256.New()
	section := func(name string, write func(w *strings.Builder) error) {
		var b strings.Builder
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(h, "== %s %d\n%s\n", name, b.Len(), b.String())
	}
	section("counters", func(w *strings.Builder) error {
		_, err := fmt.Fprintf(w, "%+v", s.Counters())
		return err
	})
	section("snapshot", func(w *strings.Builder) error {
		return obs.WriteJSON(w, "gold", s.Registry().StableSnapshot())
	})
	section("trace", func(w *strings.Builder) error { return tracer.WriteJSONL(w) })
	section("csv", func(w *strings.Builder) error { w.WriteString(csv.String()); return nil })
	section("tsdb", func(w *strings.Builder) error { return s.Agg.obsOpts.TSDB.WriteJSON(w) })
	section("slo", func(w *strings.Builder) error { return s.Agg.obsOpts.SLO.WriteJSON(w) })
	section("picks", func(w *strings.Builder) error { return s.Agg.obsOpts.Picks.WriteJSON(w) })
	section("optrace", func(w *strings.Builder) error {
		return s.Agg.obsOpts.OpTrace.WriteJSON(w, optrace.Filter{})
	})
	return fmt.Sprintf("%x", h.Sum(nil))
}

// AllocShards=1 has no digest of its own: options.go promises it is the
// direct pick byte for byte, so it must reproduce the shards=0 digest.
func TestCPEngineGolden(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		for _, shards := range []int{0, 1, 4} {
			mode := fmt.Sprintf("pipeline=%v,shards=%d", pipeline, shards)
			want := cpEngineGolden[mode]
			if shards == 1 {
				want = cpEngineGolden[fmt.Sprintf("pipeline=%v,shards=0", pipeline)]
			}
			t.Run(mode, func(t *testing.T) {
				if got := cpEngineDigest(t, pipeline, shards); got != want {
					t.Errorf("digest %s, recorded %s", got, want)
				}
			})
		}
	}
}
