package topaa

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/faultinject"
	"waflfs/internal/hbps"
)

// image is what one load of one metafile shows a caller: the bytes the
// decoder would read, the outcome, and the failure class.
type image struct {
	data    []byte
	outcome LoadOutcome
	class   error // one of the four sentinels, or nil
}

func loadImage(s *Store, name string) image {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, outcome, err := s.loadLocked(name)
	im := image{outcome: outcome}
	if m != nil {
		im.data = append([]byte(nil), m.data...)
	}
	for _, class := range []error{ErrMissing, ErrStale, ErrTorn, ErrDamaged} {
		if errors.Is(err, class) {
			im.class = class
		}
	}
	if err != nil && im.class == nil {
		im.class = err // unclassified: compares unequal to everything
	}
	return im
}

// TestInPlaceSaveMatchesRebuild drives two stores through one seeded history
// of saves, generation bumps, media damage of every kind and crashes. The
// first saves as the store now does, over the existing metafile. The second
// is made to build a new metafile for every whole save (its old one is
// dropped first) — what every save used to do. Every load must show both
// the same bytes, outcome and failure class, and the recovery and I/O
// counters must stay equal: an overwrite may leave nothing behind of the
// image or the damage marks it replaced, and dropped and torn saves must
// land exactly what they landed before.
func TestInPlaceSaveMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inPlace, rebuilt := NewStore(), NewStore()
		stores := []*Store{inPlace, rebuilt}
		injs := make([]*faultinject.Injector, 2)
		arm := func() {
			plan := faultinject.Plan{CrashPhase: faultinject.PhaseFlush, Fault: faultinject.FaultTorn, Seed: rng.Int63()}
			if rng.Intn(2) == 0 {
				plan.Fault = faultinject.FaultNone
			}
			for i, s := range stores {
				injs[i] = faultinject.New(plan)
				s.SetInjector(injs[i])
			}
		}
		arm()
		names := []string{"rg0", "rg1", "vol0", "vol1"}
		blocksOf := func(name string) int {
			if name[0] == 'r' {
				return 1
			}
			return 2
		}
		save := func(name string) {
			whole := !injs[0].Crashed()
			if whole {
				rebuilt.Drop(name)
			}
			if blocksOf(name) == 1 {
				c := fullCache(1+rng.Intn(1500), rng.Int63())
				for _, s := range stores {
					if err := s.SaveRAIDAware(name, c); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			h := hbps.New(hbps.DefaultConfig())
			for id, n := 0, rng.Intn(3000); id < n; id++ {
				h.Track(aa.ID(id), uint32(rng.Intn(hbps.DefaultMaxScore+1)))
			}
			for _, s := range stores {
				s.SaveAgnostic(name, h)
			}
		}
		for step := 0; step < 600; step++ {
			name := names[rng.Intn(len(names))]
			blk, chunk := rng.Intn(blocksOf(name)), rng.Intn(block.ChunksPerBlock)
			off := rng.Intn(blocksOf(name) * block.BlockSize)
			var errs [2]error
			switch op := rng.Intn(12); op {
			case 0, 1, 2, 3:
				save(name)
			case 4:
				for _, s := range stores {
					s.BeginGeneration()
				}
			case 5:
				for i, s := range stores {
					errs[i] = s.CorruptChunk(name, blk, chunk)
				}
			case 6:
				for i, s := range stores {
					errs[i] = s.MarkChunkUnreadable(name, blk, chunk)
				}
			case 7:
				for i, s := range stores {
					errs[i] = s.MarkParityUnreadable(name, blk)
				}
			case 8:
				for i, s := range stores {
					errs[i] = s.Corrupt(name, off)
				}
			case 9: // crash: saves drop, or the first one tears, until the reboot
				for _, inj := range injs {
					inj.EnterPhase(faultinject.PhaseFlush)
				}
			case 10: // reboot, sometimes onto a fresh plan so saves can tear again
				for _, inj := range injs {
					inj.Recover()
				}
				if rng.Intn(3) == 0 {
					arm()
				}
			case 11: // a burst of loads: a reconstruction repairs in place, so load twice
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("seed %d step %d: damage call errors differ: %v vs %v", seed, step, errs[0], errs[1])
			}
			for _, n := range names {
				for pass := 0; pass < 2; pass++ {
					a, b := loadImage(inPlace, n), loadImage(rebuilt, n)
					if a.outcome != b.outcome || a.class != b.class || !bytes.Equal(a.data, b.data) {
						t.Fatalf("seed %d step %d: %q loads as %v/%v (%d bytes) in place, %v/%v (%d bytes) rebuilt",
							seed, step, n, a.outcome, a.class, len(a.data), b.outcome, b.class, len(b.data))
					}
				}
			}
			if inPlace.Recovery() != rebuilt.Recovery() {
				t.Fatalf("seed %d step %d: recovery stats %+v in place, %+v rebuilt", seed, step, inPlace.Recovery(), rebuilt.Recovery())
			}
			ar, aw := inPlace.Stats()
			br, bw := rebuilt.Stats()
			if ar != br || aw != bw {
				t.Fatalf("seed %d step %d: I/O %d/%d in place, %d/%d rebuilt", seed, step, ar, aw, br, bw)
			}
		}
		if r := inPlace.Recovery(); r.Reconstructions == 0 || r.StaleLoads == 0 || r.TornLoads == 0 || r.DamagedLoads == 0 {
			t.Errorf("seed %d: the history missed a failure class: %+v", seed, r)
		}
	}
}

// TestOverwriteIsIndistinguishableFromNew: whatever a metafile went through
// — rot, media-error marks on chunks and on parity, a torn save — a whole
// save over it leaves exactly the object a first save would have made.
func TestOverwriteIsIndistinguishableFromNew(t *testing.T) {
	s := NewStore()
	s.BeginGeneration()
	h := hbps.New(hbps.DefaultConfig())
	for id := 0; id < 700; id++ {
		h.Track(aa.ID(id), uint32(id*40))
	}
	s.SaveAgnostic("v", h)
	for blk := 0; blk < 2; blk++ {
		for _, err := range []error{
			s.CorruptChunk("v", blk, 3),
			s.MarkChunkUnreadable("v", blk, 5),
			s.MarkChunkUnreadable("v", blk, 6),
			s.MarkParityUnreadable("v", blk),
			s.Corrupt("v", blk*block.BlockSize+9),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := s.LoadAgnostic("v"); !errors.Is(err, ErrDamaged) {
		t.Fatalf("damaged metafile loaded: %v", err)
	}
	before := s.blocks["v"]
	s.BeginGeneration()
	h.Update(3, 120, 32768)
	s.SaveAgnostic("v", h)
	if s.blocks["v"] != before {
		t.Fatal("a same-size save replaced the metafile instead of rewriting it")
	}
	want := newMetafile(h.Marshal(), s.Generation())
	got := s.blocks["v"]
	if !bytes.Equal(got.data, want.data) || len(got.prot) != len(want.prot) {
		t.Fatal("overwritten image differs from a new one")
	}
	for b := range got.prot {
		if got.prot[b] != want.prot[b] {
			t.Fatalf("block %d protection after overwrite:\n%+v\nnew:\n%+v", b, got.prot[b], want.prot[b])
		}
	}
	if _, outcome, err := s.LoadAgnostic("v"); err != nil || outcome != LoadClean {
		t.Fatalf("load after overwrite: %v, %v", outcome, err)
	}
	// A save of another size is a different fixed-size object: it replaces.
	if err := s.SaveRAIDAware("v", fullCache(40, 1)); err != nil {
		t.Fatal(err)
	}
	if s.blocks["v"] == before || s.BlockCount("v") != 1 {
		t.Fatal("a save of a different size did not replace the metafile")
	}
}

// TestSteadyStateSavesDoNotAllocate: a CP's TopAA saves rewrite fixed-size
// objects. Once a metafile exists and the store's scratch has its size,
// saving over it allocates nothing — not the marshalled image, not the
// exported top of the heap, not the protection.
func TestSteadyStateSavesDoNotAllocate(t *testing.T) {
	s := NewStore()
	c := fullCache(1024, 3)
	h := hbps.New(hbps.DefaultConfig())
	for id := 0; id < 2048; id++ {
		h.Track(aa.ID(id), uint32(id*16))
	}
	cp := func() {
		s.BeginGeneration()
		if err := s.SaveRAIDAware("rg0", c); err != nil {
			t.Fatal(err)
		}
		s.SaveAgnostic("vol0", h)
	}
	cp()
	if n := testing.AllocsPerRun(100, cp); n != 0 {
		t.Errorf("a steady-state CP's two saves allocate %.1f times", n)
	}
	if _, outcome, err := s.LoadRAIDAware("rg0"); err != nil || outcome != LoadClean {
		t.Fatalf("LoadRAIDAware: %v, %v", outcome, err)
	}
	if _, outcome, err := s.LoadAgnostic("vol0"); err != nil || outcome != LoadClean {
		t.Fatalf("LoadAgnostic: %v, %v", outcome, err)
	}
}

// BenchmarkSaveAgnosticSteady prices one volume's TopAA save at a CP: the
// HBPS's two pages marshalled, copied over the metafile and re-protected
// (sixteen chunk CRCs, two parity chunks and their CRCs).
func BenchmarkSaveAgnosticSteady(b *testing.B) {
	s := NewStore()
	s.BeginGeneration()
	h := hbps.New(hbps.DefaultConfig())
	for id := 0; id < 2048; id++ {
		h.Track(aa.ID(id), uint32(id*16))
	}
	s.SaveAgnostic("vol0", h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SaveAgnostic("vol0", h)
	}
}

// BenchmarkSaveRAIDAwareSteady is the group-side save: the heap's top 512
// of 1024 exported, encoded and protected.
func BenchmarkSaveRAIDAwareSteady(b *testing.B) {
	s := NewStore()
	s.BeginGeneration()
	c := fullCache(1024, 4)
	if err := s.SaveRAIDAware("rg0", c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SaveRAIDAware("rg0", c); err != nil {
			b.Fatal(err)
		}
	}
}
