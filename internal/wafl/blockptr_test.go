package wafl

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

// A block pointer is two 32-bit VBNs, and the zero one is unwritten.
func TestBlockPtrIsEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(blockPtr{}); n != 8 {
		t.Fatalf("blockPtr is %d bytes, want 8", n)
	}
	if p := (blockPtr{}); p.virt.vbn() != block.InvalidVBN || p.phys.vbn() != block.InvalidVBN {
		t.Fatalf("the zero blockPtr reads (%v, %v), want InvalidVBN twice", p.virt.vbn(), p.phys.vbn())
	}
	for _, v := range []block.VBN{0, 1, 1 << 31, maxSpaceBlocks - 1, block.InvalidVBN} {
		if got := pack(v).vbn(); got != v {
			t.Fatalf("pack(%v).vbn() = %v", v, got)
		}
	}
}

// Every constructor of a space a block pointer addresses refuses one past
// the 32-bit cap, naming it, before it allocates anything; a space at the
// cap is accepted.
func TestSpaceCap(t *testing.T) {
	over := uint64(maxSpaceBlocks) + 1
	// 4 × 2^30 = 2^32 data blocks: one past the cap.
	huge := GroupSpec{DataDevices: 4, ParityDevices: 1, BlocksPerDevice: 1 << 30, Media: aa.MediaHDD}
	for _, tc := range []struct {
		name string
		call func(s *System)
	}{
		{"NewSystem aggregate", func(*System) { NewSystem([]GroupSpec{huge}, nil, DefaultTunables(), 1) }},
		{"NewSystem volume", func(*System) {
			NewSystem(testSpecs(), []VolSpec{{Name: "big", Blocks: over}}, DefaultTunables(), 1)
		}},
		{"AddGroup", func(s *System) { s.Agg.AddGroup(huge) }},
		{"AddVolume", func(s *System) { s.Agg.AddVolume(VolSpec{Name: "big", Blocks: over}) }},
		{"CreateLUN", func(s *System) { s.Agg.Vols()[0].CreateLUN("big", over) }},
		{"AddObjectPool", func(s *System) { s.Agg.AddObjectPool(PoolSpec{Blocks: over - s.Agg.Blocks()}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSystem(t, DefaultTunables())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				tc.call(s)
				return ""
			}()
			runtime.ReadMemStats(&after)
			if !strings.Contains(msg, "2^32-1") {
				t.Fatalf("panic %q does not name the 2^32-1-block cap", msg)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
				t.Fatalf("allocated %d bytes before refusing", n)
			}
		})
	}
	// At the cap a pool is accepted: its bitmap pages exist only once
	// written, so the 131072-page aggregate bitmap costs its page table.
	s := testSystem(t, DefaultTunables())
	s.Agg.AddObjectPool(PoolSpec{Blocks: maxSpaceBlocks - s.Agg.Blocks()})
	if s.Agg.Blocks() != maxSpaceBlocks {
		t.Fatalf("aggregate of %d blocks, want %d", s.Agg.Blocks(), uint64(maxSpaceBlocks))
	}
}
