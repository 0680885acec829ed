package device

import (
	"testing"
	"time"
)

func TestHDDChainCost(t *testing.T) {
	h := &HDD{Position: time.Millisecond, TransferPerBlock: 10 * time.Microsecond}
	one := h.WriteChain(0, 1)
	long := h.WriteChain(1, 100)
	if one != time.Millisecond+10*time.Microsecond {
		t.Fatalf("one-block chain = %v", one)
	}
	if long != time.Millisecond+time.Millisecond {
		t.Fatalf("100-block chain = %v", long)
	}
	// A long chain must be far cheaper than the same blocks as singles.
	if long >= 100*one {
		t.Fatal("chain not cheaper than scattered writes")
	}
	st := h.Stats()
	if st.WriteIOs != 2 || st.BlocksWritten != 101 {
		t.Fatalf("stats = %+v", st)
	}
	rd := h.Read(4)
	if rd != time.Millisecond+40*time.Microsecond {
		t.Fatalf("read = %v", rd)
	}
	if h.Stats().ReadIOs != 1 || h.Stats().BlocksRead != 4 {
		t.Fatalf("read stats = %+v", h.Stats())
	}
}

func TestSSDWriteChainChargesGC(t *testing.T) {
	cfg := DefaultSSDConfig(1 << 12)
	cfg.FTL.PagesPerEraseBlock = 64
	s := NewSSD(cfg)
	// Fill once sequentially: no GC, so each chain costs overhead + n*program.
	var before time.Duration
	for lpn := uint64(0); lpn < 1<<12; lpn += 64 {
		before = s.WriteChain(lpn, 64)
	}
	want := cfg.CommandOverhead + 64*cfg.ProgramPerBlock
	if before != want {
		t.Fatalf("no-GC chain = %v, want %v", before, want)
	}
	if s.WriteAmplification() != 1.0 {
		t.Fatalf("WA after sequential fill = %v", s.WriteAmplification())
	}
	st := s.Stats()
	if st.BlocksWritten != 1<<12 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSSDTrimReducesGCWork(t *testing.T) {
	mk := func() *SSD {
		cfg := DefaultSSDConfig(1 << 12)
		cfg.FTL.PagesPerEraseBlock = 64
		cfg.FTL.Overprovision = 0.08
		return NewSSD(cfg)
	}
	churn := func(s *SSD, trim bool) float64 {
		for lpn := uint64(0); lpn < 1<<12; lpn++ {
			s.WriteChain(lpn, 1)
		}
		// Overwrite random single blocks; optionally trim a region first.
		if trim {
			s.Trim(0, 1<<11)
		}
		r := uint64(12345)
		for i := 0; i < 1<<13; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			s.WriteChain(r%(1<<12), 1)
		}
		return s.WriteAmplification()
	}
	with, without := churn(mk(), true), churn(mk(), false)
	if with >= without {
		t.Fatalf("WA with trim %v >= without %v", with, without)
	}
}

func TestSSDRead(t *testing.T) {
	s := NewSSD(DefaultSSDConfig(1024))
	d := s.Read(8)
	want := s.CommandOverhead + 8*s.ReadPerBlock
	if d != want {
		t.Fatalf("read = %v, want %v", d, want)
	}
}

func TestSMRSequentialAppend(t *testing.T) {
	s := NewSMR(1<<16, 1<<12)
	d1 := s.WriteChain(0, 100)
	if s.Interventions() != 0 {
		t.Fatal("sequential append intervened")
	}
	if s.WritePointer(0) != 100 {
		t.Fatalf("wp = %d", s.WritePointer(0))
	}
	// Continue at the write pointer: still clean.
	s.WriteChain(100, 100)
	if s.Interventions() != 0 {
		t.Fatal("continued append intervened")
	}
	// Forward gap: allowed, no intervention.
	s.WriteChain(1000, 10)
	if s.Interventions() != 0 {
		t.Fatal("forward-gap write intervened")
	}
	if s.WritePointer(0) != 1010 {
		t.Fatalf("wp after gap = %d", s.WritePointer(0))
	}
	_ = d1
}

func TestSMRRewriteIntervenes(t *testing.T) {
	s := NewSMR(1<<16, 1<<12)
	s.WriteChain(0, 1000)
	clean := s.WriteChain(1000, 100)
	// A small below-WP write is absorbed by the media cache...
	cached := s.WriteChain(500, 10)
	if s.Interventions() != 0 || s.MediaCacheWrites() != 1 {
		t.Fatalf("small rewrite: interventions=%d mediaCache=%d", s.Interventions(), s.MediaCacheWrites())
	}
	if cached <= s.Position {
		t.Fatalf("media-cache write %v unrealistically cheap", cached)
	}
	// ...but a large below-WP write forces a full intervention.
	dirty := s.WriteChain(100, 200)
	if s.Interventions() != 1 {
		t.Fatalf("interventions = %d", s.Interventions())
	}
	if dirty <= clean {
		t.Fatalf("intervened write %v not slower than clean %v", dirty, clean)
	}
}

func TestSMRZoneBoundaries(t *testing.T) {
	s := NewSMR(1<<16, 1<<12)
	// A chain spanning two zones advances both write pointers.
	s.WriteChain(1<<12-10, 20)
	if s.WritePointer(0) != 1<<12 || s.WritePointer(1) != 10 {
		t.Fatalf("wp0=%d wp1=%d", s.WritePointer(0), s.WritePointer(1))
	}
	if s.Interventions() != 0 {
		t.Fatal("boundary-spanning append intervened")
	}
	// Reset zone 1 and rewrite from its start: clean again.
	s.ResetZone(1)
	s.WriteChain(1<<12, 5)
	if s.Interventions() != 0 {
		t.Fatal("write after zone reset intervened")
	}
	if s.Stats().BlocksWritten != 25 {
		t.Fatalf("blocks written = %d", s.Stats().BlocksWritten)
	}
}

func TestSMRWriteOutOfRangePanics(t *testing.T) {
	s := NewSMR(100, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SMR write did not panic")
		}
	}()
	s.WriteChain(95, 10)
}

func TestAZCSDataDiskConversion(t *testing.T) {
	// Data indices skip checksum blocks: index 62 is the last data block of
	// region 0 (disk DBN 62); index 63 jumps to disk DBN 64.
	cases := []struct{ data, disk uint64 }{
		{0, 0}, {62, 62}, {63, 64}, {125, 126}, {126, 128},
	}
	for _, c := range cases {
		if got := DataToDiskDBN(c.data); got != c.disk {
			t.Errorf("DataToDiskDBN(%d) = %d, want %d", c.data, got, c.disk)
		}
	}
	if AZCSUsableFraction <= 0.98 || AZCSUsableFraction >= 1 {
		t.Errorf("usable fraction = %v", AZCSUsableFraction)
	}
}

func TestSMRRandomWriteIsWriteChain(t *testing.T) {
	a := NewSMR(1<<14, 1<<12)
	b := NewSMR(1<<14, 1<<12)
	d1 := a.WriteChain(100, 8)
	d2 := b.RandomWrite(100, 8)
	if d1 != d2 {
		t.Fatalf("RandomWrite %v != WriteChain %v", d2, d1)
	}
}
