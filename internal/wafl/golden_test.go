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
	"pipeline=false,shards=0": "d287cdc96ce38b74e1bc830af0f6684988c648f903dd2f47fc3294f4c51a6b4f",
	"pipeline=false,shards=4": "22cabfe3f4374edadb18b3568a4f1de6dba89067672c1c62a093e76872b875a5",
	"pipeline=true,shards=0":  "b4ca4f9c0eef9a9ca124b11ae011ea126b100121ca69bce12a55f7fc3f2b077a",
	"pipeline=true,shards=4":  "0ba655324d4a4c6fae5fb76d7248bb037e78567f8904392c5ffe889bd7c2859d",
}

// cpEngineSections names the streams the whole-stream digest is built from,
// in hashing order; cpEngineSectionGolden pins each one on its own, so a
// change that moves a whole-stream digest on purpose can show which streams
// it moved ("picks only", "snapshot+tsdb only") instead of one opaque hash.
var cpEngineSections = []string{"counters", "snapshot", "tsdb", "slo", "picks", "optrace"}

var cpEngineSectionGolden = map[string]map[string]string{
	"pipeline=false,shards=0": {
		"counters": "9dff0912e3474d2a6c7ca23deb4f1952b1159506713fdc664c848c800f5f6477",
		"snapshot": "8386926f6fd788cffb804cb6eded93e69eb533df0b27b01f0a9fd56549127c84",
		"tsdb":     "d859f7e66544a41857e95150141b45195164f586a76b0eb0e54038ef8ed9970f",
		"slo":      "afd755c886953ac6c12b4795077c4bfd5b21fd9941c26d0e2d171e5a2f10b6b8",
		"picks":    "d547ef6dbe8874dfb16743f909af67488424cfef523ab837bf2923a94158b08c",
		"optrace":  "aa428b11f4eebe47a1593e74bb200fdb2f128bc80bccedfadf594dbaa4ad1c57",
	},
	"pipeline=false,shards=4": {
		"counters": "d770c15eb8747bdf6a6e7dfddae485d80263f110a7407052cc565903aa23fbbc",
		"snapshot": "3c5d065fe6f452a1a6edeff35348ca8c9dd8433571f2c7f41793bd9f08e1af58",
		"tsdb":     "3b82cf0d6de2a3ee8b9391fa9c0f9a790afc6e77077019c7adec86f42067b5c2",
		"slo":      "c3fc7c20de7c8408091e30e1c3ae3d0c73a5483a50d81dd41cc8e8ca02b5189d",
		"picks":    "d9eafdba31a2dc7a42f210ddc4f5f7df970677679bea7490245b5bdd8ce3ef3b",
		"optrace":  "f19d643224ccfcba4ba5a607fc06e84961a50003f0f20b9512c0c7a8f8f306ec",
	},
	"pipeline=true,shards=0": {
		"counters": "20c883718b6430876d030f0726cdd9e0c448611d2f7c1d4525782d8e671c65e7",
		"snapshot": "d47f26b8018059cdcd2714acc457ce68ed723527c55cb8362e18642ae484fe47",
		"tsdb":     "69720ad9fec2bb56788f472f1156b0ffcb3edbef5cb86853f0b2b38df3032447",
		"slo":      "db39a1d940b1dfbe79a46bfb76abad52b08ea81492ea4ec0dda343290bbc1d1a",
		"picks":    "d547ef6dbe8874dfb16743f909af67488424cfef523ab837bf2923a94158b08c",
		"optrace":  "d02b16c75e013af3d5091fa4b283d7510038af49c6dfc74d66a764647857852a",
	},
	"pipeline=true,shards=4": {
		"counters": "f3fbfe9c15289d0b95e45d5b8b04bb915c1508be4da1a74b4445237d6f4ef97e",
		"snapshot": "d811d5647554f3f5ebc9aae129df07c9251b2876829cde7fe8b4bb1995270194",
		"tsdb":     "77f352d4d1a6e2e5b5c7fdfbacdeac23c5756b574ae6a20a21f86491f7acc59b",
		"slo":      "45768f3f11e1b6580f1a9915b5f2ef9008d9fa242b40d04288336e9ee52e04c8",
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
	tun := DefaultTunables()
	tun.Workers = 1
	tun.CPEveryOps = 1 << 30
	tun.Pipeline = pipeline
	tun.AllocShards = shards
	tun.DelayedVirtFrees = true
	tun.DelayedFreeBudgetPerCP = 700
	tun.Obs = &ObsOptions{
		Name:      "gold",
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
