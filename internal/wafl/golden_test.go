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

// cpEngineSections names the streams the whole-stream digest is built from,
// in hashing order; cpEngineSectionGolden pins each one on its own, so a
// change that moves a whole-stream digest on purpose can show which streams
// it moved ("trace only", "snapshot+csv+tsdb only") instead of one opaque
// hash.
var cpEngineSections = []string{"counters", "snapshot", "trace", "csv", "tsdb", "slo", "picks", "optrace"}

var cpEngineSectionGolden = map[string]map[string]string{
	"pipeline=false,shards=0": {
		"counters": "9dff0912e3474d2a6c7ca23deb4f1952b1159506713fdc664c848c800f5f6477",
		"snapshot": "c13e2c893c2df0302c5a3e9632b635048e3978307c94e91a3630b76b4669dd3a",
		"trace":    "49b207cc6cef0953f1c34b9c94c618c5c45fde2e2179afa74d3e1c85c3856414",
		"csv":      "b719f5dfdb1da4167b6c096750c0a43c6404a15418047de89ce729496e20ff65",
		"tsdb":     "808bdaf9d7a997b849a2940a747b7c1de52cf71465e5ed7309bbb08e7780690c",
		"slo":      "afd755c886953ac6c12b4795077c4bfd5b21fd9941c26d0e2d171e5a2f10b6b8",
		"picks":    "d547ef6dbe8874dfb16743f909af67488424cfef523ab837bf2923a94158b08c",
		"optrace":  "aa428b11f4eebe47a1593e74bb200fdb2f128bc80bccedfadf594dbaa4ad1c57",
	},
	"pipeline=false,shards=4": {
		"counters": "d770c15eb8747bdf6a6e7dfddae485d80263f110a7407052cc565903aa23fbbc",
		"snapshot": "01f7c1026bfc747855c27b3d31710cfef698396b6c13513bfc70071e7d38099f",
		"trace":    "4dc08f7c3dca27556732061e2ec5ed261a533788dd4e54ce28d69d51a88f3795",
		"csv":      "8cba170401851d700df6a12c178c65cdaa3a24e4263ddf68055d3c5f85eb2f4b",
		"tsdb":     "13a6f191b9689df661375c8d74ac9838fe6c41ae2e912bbe32e0903c8279adf7",
		"slo":      "150c0f59e34ece49fcaece54087f1b5964e0d40d9e0e2e494594af296cd4c410",
		"picks":    "d9eafdba31a2dc7a42f210ddc4f5f7df970677679bea7490245b5bdd8ce3ef3b",
		"optrace":  "f19d643224ccfcba4ba5a607fc06e84961a50003f0f20b9512c0c7a8f8f306ec",
	},
	"pipeline=true,shards=0": {
		"counters": "20c883718b6430876d030f0726cdd9e0c448611d2f7c1d4525782d8e671c65e7",
		"snapshot": "3a84873c9cfb1417e55f41f54ebea62c796182eae90d84c040d96512d62298c9",
		"trace":    "cc4bd9e425fa43c3e1b9440fb56b5d4fabb0e326fd24f1613e734b797dbb6986",
		"csv":      "0e45cd5e37d48253b4c598bb0b4be203c586394778951ec82b783f952eeb2f69",
		"tsdb":     "2a677bd2d1bf4162784932ba938c3177dcf127b6b2f8e5012d5f5f9d6d443293",
		"slo":      "db39a1d940b1dfbe79a46bfb76abad52b08ea81492ea4ec0dda343290bbc1d1a",
		"picks":    "d547ef6dbe8874dfb16743f909af67488424cfef523ab837bf2923a94158b08c",
		"optrace":  "d02b16c75e013af3d5091fa4b283d7510038af49c6dfc74d66a764647857852a",
	},
	"pipeline=true,shards=4": {
		"counters": "f3fbfe9c15289d0b95e45d5b8b04bb915c1508be4da1a74b4445237d6f4ef97e",
		"snapshot": "3fd752137269d28d383c2e3505b5ee8204c2a3adf46032cab8dcc0cee4b228cc",
		"trace":    "46b7942dc92873b4dfc89ae7b7271536988d79ea1fd529853b9e665b1fb87184",
		"csv":      "7ad4c81a405dd87074e927e07648c901f514b8b3795bb16cdd37931d3161d715",
		"tsdb":     "6bc12b5ea97e7fb8a1337daee113d2a7b6012c8295fe0595ec377fe2beb4f151",
		"slo":      "56fff1cd24293a91078a5dcd3a7db64a28a01d5f0f861587b372b65a7f9b6ab3",
		"picks":    "d9eafdba31a2dc7a42f210ddc4f5f7df970677679bea7490245b5bdd8ce3ef3b",
		"optrace":  "7331e9b8de32cffa2bc66e8a300c65672154c0ed2818987a045aad9563847f72",
	},
}

// cpEngineDigest runs one seeded lifecycle — two volumes filled and
// overwritten, snapshot create/delete feeding delayed frees under a finite
// per-CP reclaim budget, a punch, a seeded remount, a final Drain — with
// every sink armed, and hashes what came out.
func cpEngineDigest(t *testing.T, pipeline bool, shards int) (string, map[string]string) {
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
		Name:      "gold",
		Tracer:    tracer,
		CSV:       rec,
		TSDB:      tsdb.NewStore(tsdb.Config{Capacity: 256, HistBuckets: tsdb.SuffixFilter(".lat_ns")}),
		Picks:     picks.NewRecorder(picks.DefaultConfig()),
		Watchdogs: true,
		SLO:       slo.NewSet(slo.DefaultSpecs()),
		OpTrace:   optrace.NewRecorder(optrace.Config{Rate: 3, Capacity: 128, Seed: 14}),
	}
	s := NewSystem(testSpecs(), []VolSpec{
		{Name: "va", Blocks: 8 * aa.RAIDAgnosticBlocks},
		{Name: "vb", Blocks: 8 * aa.RAIDAgnosticBlocks},
		{Name: "idle", Blocks: 2 * aa.RAIDAgnosticBlocks},
	}, tun, 14)
	strictWatchdogs(t, s)
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
	sections := make(map[string]string)
	section := func(name string, write func(w *strings.Builder) error) {
		var b strings.Builder
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(h, "== %s %d\n%s\n", name, b.Len(), b.String())
		sections[name] = fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
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
	return fmt.Sprintf("%x", h.Sum(nil)), sections
}

// AllocShards=1 has no digest of its own: options.go promises it is the
// direct pick byte for byte, so it must reproduce the shards=0 digests.
func TestCPEngineGolden(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		for _, shards := range []int{0, 1, 4} {
			mode := fmt.Sprintf("pipeline=%v,shards=%d", pipeline, shards)
			want := mode
			if shards == 1 {
				want = fmt.Sprintf("pipeline=%v,shards=0", pipeline)
			}
			t.Run(mode, func(t *testing.T) {
				got, sections := cpEngineDigest(t, pipeline, shards)
				if got != cpEngineGolden[want] {
					t.Errorf("digest %s, recorded %s", got, cpEngineGolden[want])
				}
				for _, name := range cpEngineSections {
					if rec := cpEngineSectionGolden[want][name]; sections[name] != rec {
						t.Errorf("section %s moved: digest %s, recorded %s", name, sections[name], rec)
					}
				}
			})
		}
	}
}
