package raid

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"waflfs/internal/block"
)

func testGeo() Geometry {
	return Geometry{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 16, StartVBN: 1000}
}

func TestValidate(t *testing.T) {
	if err := testGeo().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Geometry{
		{DataDevices: 0, ParityDevices: 1, BlocksPerDevice: 10},
		{DataDevices: 4, ParityDevices: -1, BlocksPerDevice: 10},
		{DataDevices: 4, ParityDevices: 1, BlocksPerDevice: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d validated", i)
		}
	}
}

func TestLocateVBNOfRoundTrip(t *testing.T) {
	g := testGeo()
	r := g.VBNRange()
	if r.Len() != g.Blocks() {
		t.Fatalf("VBNRange len = %d, Blocks = %d", r.Len(), g.Blocks())
	}
	// Spot checks.
	d, dbn := g.Locate(g.StartVBN)
	if d != 0 || dbn != 0 {
		t.Fatalf("Locate(start) = (%d,%d)", d, dbn)
	}
	d, dbn = g.Locate(g.StartVBN + block.VBN(g.BlocksPerDevice))
	if d != 1 || dbn != 0 {
		t.Fatalf("Locate(device 1 start) = (%d,%d)", d, dbn)
	}
	// Property: round trip over random VBNs in range.
	f := func(off uint32) bool {
		v := r.Start + block.VBN(uint64(off)%r.Len())
		d, dbn := g.Locate(v)
		return g.VBNOf(d, dbn) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLocatePanicsOutside(t *testing.T) {
	g := testGeo()
	for _, v := range []block.VBN{0, g.StartVBN - 1, g.VBNRange().End} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Locate(%v) did not panic", v)
				}
			}()
			g.Locate(v)
		}()
	}
}

func TestStripeVBNs(t *testing.T) {
	g := testGeo()
	vbns := g.StripeVBNs(5)
	if len(vbns) != g.DataDevices {
		t.Fatalf("stripe has %d blocks", len(vbns))
	}
	for d, v := range vbns {
		dd, dbn := g.Locate(v)
		if dd != d || dbn != 5 {
			t.Errorf("stripe block %d locates to (%d,%d)", d, dd, dbn)
		}
	}
	// Every block of a stripe shares a stripe number.
	for _, v := range vbns {
		if g.StripeOf(v) != 5 {
			t.Errorf("StripeOf(%v) != 5", v)
		}
	}
}

func TestDeviceRangesPartitionGroup(t *testing.T) {
	g := testGeo()
	var total uint64
	prevEnd := g.StartVBN
	for d := 0; d < g.DataDevices; d++ {
		r := g.DeviceRange(d)
		if r.Start != prevEnd {
			t.Fatalf("device %d range %v not contiguous with previous end %v", d, r, prevEnd)
		}
		total += r.Len()
		prevEnd = r.End
	}
	if total != g.Blocks() || prevEnd != g.VBNRange().End {
		t.Fatalf("device ranges do not partition group: total=%d end=%v", total, prevEnd)
	}
}

func TestDeviceSegment(t *testing.T) {
	g := testGeo()
	seg := g.DeviceSegment(2, 100, 200)
	if seg.Len() != 100 {
		t.Fatalf("segment len = %d", seg.Len())
	}
	d, dbn := g.Locate(seg.Start)
	if d != 2 || dbn != 100 {
		t.Fatalf("segment start locates to (%d,%d)", d, dbn)
	}
	// Clamped to device end.
	seg = g.DeviceSegment(0, g.BlocksPerDevice-10, g.BlocksPerDevice+10)
	if seg.Len() != 10 {
		t.Fatalf("clamped segment len = %d", seg.Len())
	}
}

func TestBuildTetrisesFullStripe(t *testing.T) {
	g := Geometry{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 256, StartVBN: 0}
	// Write all blocks of stripes 0..63 → one tetris, all full stripes.
	var vbns []block.VBN
	for s := uint64(0); s < 64; s++ {
		vbns = append(vbns, g.StripeVBNs(s)...)
	}
	ts := BuildTetrises(g, vbns)
	if len(ts) != 1 {
		t.Fatalf("tetris count = %d", len(ts))
	}
	io := ts[0]
	if io.Tetris != 0 || io.BlocksWritten != 192 || io.FullStripes != 64 || io.PartialStripes != 0 {
		t.Fatalf("tetris = %+v", io)
	}
	if io.ParityReadBlocks != 0 {
		t.Fatalf("full stripes should need no parity reads, got %d", io.ParityReadBlocks)
	}
	if io.ParityWriteBlocks != 64 {
		t.Fatalf("parity writes = %d", io.ParityWriteBlocks)
	}
	// Each device written as one 64-block chain.
	if io.WriteIOs() != 3 {
		t.Fatalf("write IOs = %d, chains = %v", io.WriteIOs(), io.Chains)
	}
	for _, c := range io.Chains {
		if c.Len != 64 || c.Start != 0 {
			t.Errorf("chain = %+v", c)
		}
	}
}

func TestBuildTetrisesPartialStripes(t *testing.T) {
	g := Geometry{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 256, StartVBN: 0}
	// Write 1 block in stripe 0 (subtractive parity: 1 data + 1 parity = 2
	// reads; additive: 5 reads → choose 2) and 5 blocks in stripe 1
	// (subtractive: 6, additive: 1 → choose 1).
	vbns := []block.VBN{g.VBNOf(0, 0)}
	for d := 0; d < 5; d++ {
		vbns = append(vbns, g.VBNOf(d, 1))
	}
	ts := BuildTetrises(g, vbns)
	if len(ts) != 1 {
		t.Fatalf("tetris count = %d", len(ts))
	}
	io := ts[0]
	if io.FullStripes != 0 || io.PartialStripes != 2 {
		t.Fatalf("stripes = %+v", io)
	}
	if io.ParityReadBlocks != 3 {
		t.Fatalf("parity reads = %d, want 2+1=3", io.ParityReadBlocks)
	}
}

func TestBuildTetrisesBoundaries(t *testing.T) {
	g := Geometry{DataDevices: 2, ParityDevices: 1, BlocksPerDevice: 256, StartVBN: 0}
	// Stripes 63 and 64 land in different tetrises.
	vbns := []block.VBN{g.VBNOf(0, 63), g.VBNOf(0, 64)}
	ts := BuildTetrises(g, vbns)
	if len(ts) != 2 || ts[0].Tetris != 0 || ts[1].Tetris != 1 {
		t.Fatalf("tetrises = %+v", ts)
	}
	// Chains do not merge across the tetris boundary even though DBNs are
	// consecutive.
	if ts[0].WriteIOs() != 1 || ts[1].WriteIOs() != 1 {
		t.Fatalf("chains merged across tetris boundary")
	}
}

func TestBuildTetrisesChains(t *testing.T) {
	g := Geometry{DataDevices: 2, ParityDevices: 1, BlocksPerDevice: 256, StartVBN: 0}
	// Device 0: DBNs 0,1,2 and 10 → two chains. Device 1: DBN 1 → one chain.
	vbns := []block.VBN{
		g.VBNOf(0, 0), g.VBNOf(0, 1), g.VBNOf(0, 2), g.VBNOf(0, 10), g.VBNOf(1, 1),
	}
	ts := BuildTetrises(g, vbns)
	if len(ts) != 1 {
		t.Fatalf("tetris count = %d", len(ts))
	}
	io := ts[0]
	want := []Chain{{0, 0, 3}, {0, 10, 1}, {1, 1, 1}}
	if len(io.Chains) != len(want) {
		t.Fatalf("chains = %+v", io.Chains)
	}
	for i := range want {
		if io.Chains[i] != want[i] {
			t.Errorf("chain[%d] = %+v, want %+v", i, io.Chains[i], want[i])
		}
	}
}

func TestBuildTetrisesDuplicatePanics(t *testing.T) {
	g := Geometry{DataDevices: 2, ParityDevices: 1, BlocksPerDevice: 256, StartVBN: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate VBN did not panic")
		}
	}()
	BuildTetrises(g, []block.VBN{3, 3})
}

func TestBuildTetrisesEmpty(t *testing.T) {
	if ts := BuildTetrises(testGeo(), nil); ts != nil {
		t.Fatalf("empty build = %+v", ts)
	}
}

// Property: conservation laws over random write sets.
func TestTetrisConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Geometry{
			DataDevices:     2 + rng.Intn(8),
			ParityDevices:   1 + rng.Intn(2),
			BlocksPerDevice: 512,
			StartVBN:        block.VBN(rng.Intn(1000)),
		}
		n := 1 + rng.Intn(400)
		seen := map[block.VBN]bool{}
		var vbns []block.VBN
		for len(vbns) < n {
			v := g.StartVBN + block.VBN(rng.Intn(int(g.Blocks())))
			if !seen[v] {
				seen[v] = true
				vbns = append(vbns, v)
			}
		}
		stats := NewStats(g)
		var chainBlocks uint64
		ts := BuildTetrises(g, vbns)
		for i := range ts {
			stats.Add(&ts[i])
			if ts[i].FullStripes+ts[i].PartialStripes != ts[i].StripesTouched {
				return false
			}
			for _, c := range ts[i].Chains {
				chainBlocks += c.Len
			}
		}
		if stats.BlocksWritten != uint64(len(vbns)) || chainBlocks != uint64(len(vbns)) {
			return false
		}
		var perDev uint64
		for _, n := range stats.PerDeviceBlocks {
			perDev += n
		}
		return perDev == uint64(len(vbns))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsFullStripeFraction(t *testing.T) {
	s := &Stats{FullStripes: 3, PartialStripes: 1}
	if got := s.FullStripeFraction(); got != 0.75 {
		t.Fatalf("fraction = %v", got)
	}
	if got := (&Stats{}).FullStripeFraction(); got != 0 {
		t.Fatalf("empty fraction = %v", got)
	}
}

// referenceTetrises is the classification written the obvious way — a map
// per grouping, a sort per tetris — that TetrisBuilder must reproduce.
func referenceTetrises(g Geometry, vbns []block.VBN) []TetrisIO {
	type coord struct {
		device int
		dbn    uint64
	}
	byTetris := map[uint64][]coord{}
	for _, v := range vbns {
		d, dbn := g.Locate(v)
		byTetris[dbn/block.StripesPerTetris] = append(byTetris[dbn/block.StripesPerTetris], coord{d, dbn})
	}
	var ids []uint64
	for id := range byTetris {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []TetrisIO
	for _, id := range ids {
		coords := byTetris[id]
		io := TetrisIO{Tetris: id, BlocksWritten: len(coords)}
		fill := map[uint64]int{}
		for _, c := range coords {
			fill[c.dbn]++
		}
		io.StripesTouched = len(fill)
		for _, k := range fill {
			if k == g.DataDevices {
				io.FullStripes++
			} else {
				io.ParityReadBlocks += min(k+g.ParityDevices, g.DataDevices-k)
			}
		}
		io.PartialStripes = io.StripesTouched - io.FullStripes
		io.ParityWriteBlocks = io.StripesTouched * g.ParityDevices
		sort.Slice(coords, func(i, j int) bool {
			if coords[i].device != coords[j].device {
				return coords[i].device < coords[j].device
			}
			return coords[i].dbn < coords[j].dbn
		})
		for i := 0; i < len(coords); {
			j := i + 1
			for j < len(coords) && coords[j].device == coords[i].device && coords[j].dbn == coords[j-1].dbn+1 {
				j++
			}
			io.Chains = append(io.Chains, Chain{Device: coords[i].device, Start: coords[i].dbn, Len: uint64(j - i)})
			i = j
		}
		out = append(out, io)
	}
	return out
}

// sortBuilder is the TetrisBuilder this package shipped until the bit-matrix
// one replaced it — one packed key per block, one comparison sort per Build —
// kept as the reference FuzzTetrisBuild compares against, panic text included,
// and as the arm BenchmarkTetrisBuilder prices the new one against.
type sortBuilder struct {
	// keys holds one packed (tetris, device, stripe-within-tetris) word per
	// block; sorted, it is already in the result's order.
	keys []uint64
	out  []TetrisIO
	// chains backs every TetrisIO.Chains of the last Build.
	chains []Chain
}

// Key layout: tetris index above, then the device, then the stripe within
// the tetris. The limits are far beyond any real geometry (a million data
// devices of 64 PiB each) and checked in Build.
const (
	keyOffBits     = 6 // log2(block.StripesPerTetris)
	keyDevBits     = 20
	keyOffMask     = 1<<keyOffBits - 1
	keyDevMask     = 1<<keyDevBits - 1
	keyTetrisShift = keyDevBits + keyOffBits

	// Both fail to compile unless 1<<keyOffBits == block.StripesPerTetris.
	_ = uint(block.StripesPerTetris - 1<<keyOffBits)
	_ = uint(1<<keyOffBits - block.StripesPerTetris)
)

// extendsChain reports whether sorted key k continues the write chain prev
// ends: the next stripe on the same device of the same tetris. Adjacent keys
// differ by one otherwise only where the stripe offset wraps to zero.
func extendsChain(prev, k uint64) bool { return k == prev+1 && k&keyOffMask != 0 }

func (b *sortBuilder) Build(g Geometry, vbns []block.VBN) []TetrisIO {
	if len(vbns) == 0 {
		return nil
	}
	if g.DataDevices > keyDevMask+1 || g.BlocksPerDevice > 1<<(64-keyDevBits) {
		panic(fmt.Sprintf("raid: geometry %d x %d exceeds the tetris builder's key layout", g.DataDevices, g.BlocksPerDevice))
	}
	keys := slices.Grow(b.keys[:0], len(vbns))
	for _, v := range vbns {
		d, dbn := g.Locate(v)
		keys = append(keys, dbn>>keyOffBits<<keyTetrisShift|uint64(d)<<keyOffBits|dbn&keyOffMask)
	}
	slices.Sort(keys)
	b.keys = keys

	// Size the result exactly, so that Chains can be sliced out of b.chains
	// while it fills without it moving underneath them.
	tetrises, chains := 1, 1
	for i := 1; i < len(keys); i++ {
		if keys[i]>>keyTetrisShift != keys[i-1]>>keyTetrisShift {
			tetrises++
		}
		if !extendsChain(keys[i-1], keys[i]) {
			chains++
		}
	}
	b.out = slices.Grow(b.out[:0], tetrises)
	b.chains = slices.Grow(b.chains[:0], chains)

	for i := 0; i < len(keys); {
		id := keys[i] >> keyTetrisShift
		io := TetrisIO{Tetris: id}
		// fill[s] counts the blocks written to stripe s of this tetris.
		var fill [block.StripesPerTetris]int
		first := len(b.chains)
		j := i
		for ; j < len(keys) && keys[j]>>keyTetrisShift == id; j++ {
			k := keys[j]
			d, off := int(k>>keyOffBits&keyDevMask), k&keyOffMask
			fill[off]++
			switch {
			case j > 0 && k == keys[j-1]:
				panic(fmt.Sprintf("raid: duplicate VBN %d in tetris build", uint64(g.VBNOf(d, id<<keyOffBits|off))))
			case j > 0 && extendsChain(keys[j-1], k):
				b.chains[len(b.chains)-1].Len++
			default:
				b.chains = append(b.chains, Chain{Device: d, Start: id<<keyOffBits | off, Len: 1})
			}
		}
		io.BlocksWritten = j - i
		io.Chains = b.chains[first:len(b.chains):len(b.chains)]
		for _, k := range fill {
			switch k {
			case 0:
				continue
			case g.DataDevices:
				io.FullStripes++
			default:
				// Cheaper of subtractive (k old data + P old parity) and
				// additive (D-k untouched data) parity computation.
				io.ParityReadBlocks += min(k+g.ParityDevices, g.DataDevices-k)
			}
			io.StripesTouched++
		}
		io.PartialStripes = io.StripesTouched - io.FullStripes
		io.ParityWriteBlocks = io.StripesTouched * g.ParityDevices
		b.out = append(b.out, io)
		i = j
	}
	return b.out
}

// randomWrites draws n distinct VBNs of g: a mix of whole-stripe runs (what an
// AA-directed CP produces) and scattered single blocks, in random order.
func randomWrites(g Geometry, rng *rand.Rand, n int) []block.VBN {
	seen := map[block.VBN]bool{}
	var vbns []block.VBN
	add := func(v block.VBN) {
		if !seen[v] {
			seen[v] = true
			vbns = append(vbns, v)
		}
	}
	for len(vbns) < n {
		if rng.Intn(2) == 0 {
			s := uint64(rng.Int63n(int64(g.BlocksPerDevice)))
			for ; s < g.BlocksPerDevice && rng.Intn(8) != 0; s++ {
				for d := 0; d < g.DataDevices; d++ {
					add(g.VBNOf(d, s))
				}
			}
		} else {
			add(g.VBNRange().Start + block.VBN(rng.Int63n(int64(g.Blocks()))))
		}
	}
	rng.Shuffle(len(vbns), func(i, j int) { vbns[i], vbns[j] = vbns[j], vbns[i] })
	return vbns
}

// A builder reused across calls must classify each input exactly as a fresh
// one does (nothing of the previous call may leak into the next), both must
// match the reference, and what BuildTetrises returned earlier must not be
// disturbed by later calls: its results are the caller's, not the builder's.
func TestTetrisBuilderReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	geos := []Geometry{
		testGeo(),
		{DataDevices: 1, ParityDevices: 0, BlocksPerDevice: 300, StartVBN: 0},
		{DataDevices: 14, ParityDevices: 2, BlocksPerDevice: 1 << 12, StartVBN: 77},
	}
	var tb TetrisBuilder
	var held, heldCopy []TetrisIO
	for round := 0; round < 200; round++ {
		g := geos[rng.Intn(len(geos))]
		vbns := randomWrites(g, rng, rng.Intn(int(min(g.Blocks(), 3000))))
		fresh := BuildTetrises(g, vbns)
		reused := tb.Build(g, vbns)
		if want := referenceTetrises(g, vbns); !reflect.DeepEqual(fresh, want) {
			t.Fatalf("round %d (%d blocks): fresh build differs from the reference", round, len(vbns))
		}
		if len(fresh) != len(reused) || (len(fresh) > 0 && !reflect.DeepEqual(fresh, reused)) {
			t.Fatalf("round %d (%d blocks): reused builder differs from a fresh one", round, len(vbns))
		}
		if !reflect.DeepEqual(held, heldCopy) {
			t.Fatalf("round %d: an earlier BuildTetrises result changed under later calls", round)
		}
		if round%7 == 0 {
			held = fresh
			heldCopy = make([]TetrisIO, len(fresh))
			for i, io := range fresh {
				heldCopy[i] = io
				heldCopy[i].Chains = append([]Chain(nil), io.Chains...)
			}
		}
	}
}

func benchWrites() (Geometry, []block.VBN) {
	g := Geometry{DataDevices: 14, ParityDevices: 2, BlocksPerDevice: 1 << 20, StartVBN: 0}
	return g, randomWrites(g, rand.New(rand.NewSource(3)), 4096)
}

// BenchmarkBuildTetrises is the one-shot wrapper: a fresh builder per call.
func BenchmarkBuildTetrises(b *testing.B) {
	g, vbns := benchWrites()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildTetrises(g, vbns)
	}
}

// allocatorWrites draws n free blocks of g the way Group.allocateTetris emits
// them from an aged AA: tetris by tetris, stripe-major, about half of the
// blocks already in use.
func allocatorWrites(g Geometry, rng *rand.Rand, n int) []block.VBN {
	var vbns []block.VBN
	for s := uint64(rng.Int63n(int64(g.BlocksPerDevice/2))) &^ (block.StripesPerTetris - 1); len(vbns) < n; s++ {
		for d := 0; d < g.DataDevices && len(vbns) < n; d++ {
			if rng.Intn(2) == 0 {
				vbns = append(vbns, g.VBNOf(d, s))
			}
		}
	}
	return vbns
}

// BenchmarkTetrisBuilder is what a Group pays per CP: one builder reused, so
// after the first call the classification allocates nothing. The arms are
// the three orders blocks arrive in — the allocator's (the CP path), VBN
// ascending (the benchmark replay's) and none at all — each next to the
// sort-per-Build builder it replaced, which the new one must not lose to in
// any of them.
func BenchmarkTetrisBuilder(b *testing.B) {
	g := Geometry{DataDevices: 6, ParityDevices: 1, BlocksPerDevice: 1 << 20, StartVBN: 1000}
	rng := rand.New(rand.NewSource(3))
	alloc := allocatorWrites(g, rng, 8192)
	ascending := slices.Clone(alloc)
	slices.Sort(ascending)
	shuffled := slices.Clone(alloc)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, order := range []struct {
		name string
		vbns []block.VBN
	}{{"allocator", alloc}, {"ascending", ascending}, {"shuffled", shuffled}} {
		var tb TetrisBuilder
		var sb sortBuilder
		for _, arm := range []struct {
			name  string
			build func(Geometry, []block.VBN) []TetrisIO
		}{{"bits", tb.Build}, {"sort", sb.Build}} {
			b.Run(order.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = arm.build(g, order.vbns)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(order.vbns)), "ns/block")
			})
		}
	}
}

// tape hands out the fuzzer's bytes one choice at a time, zeroes once spent.
type tape []byte

func (t *tape) next() int {
	if len(*t) == 0 {
		return 0
	}
	b := (*t)[0]
	*t = (*t)[1:]
	return int(b)
}

// tapeWrites decodes a geometry and a write list from a byte tape. The list
// is a sequence of allocator runs — one tetris each, stripe-major, some
// blocks skipped as in use, a tetris free to come up again in a later run —
// then, by the mode byte, left in that order, shuffled, or given one
// duplicate VBN: inside the run that holds it, or in a new run of the same
// tetris after every other run.
func tapeWrites(data []byte) (Geometry, []block.VBN) {
	t := tape(data)
	g := Geometry{
		DataDevices:     []int{1, 2, 3, 6, 14, 64, 65, 100}[t.next()%8],
		ParityDevices:   t.next() % 3,
		BlocksPerDevice: 1 + uint64(t.next()<<8|t.next())%5000,
		StartVBN:        block.VBN(t.next() * 37),
	}
	mode := t.next() % 4
	tetrises := (g.BlocksPerDevice + block.StripesPerTetris - 1) / block.StripesPerTetris
	type run struct{ from, to int }
	var (
		vbns []block.VBN
		runs []run
		seen = map[block.VBN]bool{}
	)
	for len(t) > 0 && len(vbns) < 4096 {
		first := uint64(t.next())%tetrises*block.StripesPerTetris + uint64(t.next())%block.StripesPerTetris
		end := min(first+1+uint64(t.next())%block.StripesPerTetris, (first/block.StripesPerTetris+1)*block.StripesPerTetris, g.BlocksPerDevice)
		skip := t.next()
		from := len(vbns)
		for s := first; s < end; s++ {
			for d := 0; d < g.DataDevices; d++ {
				if v := g.VBNOf(d, s); !seen[v] && (skip == 0 || (int(s)*g.DataDevices+d)%skip != 0) {
					seen[v] = true
					vbns = append(vbns, v)
				}
			}
		}
		if len(vbns) > from {
			runs = append(runs, run{from, len(vbns)})
		}
	}
	if len(runs) == 0 {
		return g, vbns
	}
	r := runs[t.next()%len(runs)]
	dup := vbns[r.from+t.next()%(r.to-r.from)]
	switch mode {
	case 1:
		rand.New(rand.NewSource(int64(t.next()))).Shuffle(len(vbns), func(i, j int) { vbns[i], vbns[j] = vbns[j], vbns[i] })
	case 2:
		vbns = slices.Insert(vbns, r.from+t.next()%(r.to-r.from+1), dup)
	case 3:
		vbns = append(vbns, dup)
	}
	return g, vbns
}

// buildOutcome runs one Build and returns a copy of its result (the
// builder's own storage is reused by the next call) or the text it panicked
// with.
func buildOutcome(build func(Geometry, []block.VBN) []TetrisIO, g Geometry, vbns []block.VBN) (out []TetrisIO, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			out, panicked = nil, fmt.Sprint(r)
		}
	}()
	for _, io := range build(g, vbns) {
		io.Chains = slices.Clone(io.Chains)
		out = append(out, io)
	}
	return out, ""
}

// accumulate is the CP's way into a builder: vbns go in as masked words of
// stripes on one device, a window opening at any stripe up to 63 below its
// first block, so windows straddle tetrises and resume mid-tetris; blocks
// outside vbns ride along in the same words and are removed again before the
// Take. rng draws the window starts and the extra blocks.
func accumulate(tb *TetrisBuilder, g Geometry, vbns []block.VBN, rng *rand.Rand) (out []TetrisIO, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			out, panicked = nil, fmt.Sprint(r)
		}
	}()
	tb.Reset()
	in := map[block.VBN]bool{}
	for _, v := range vbns {
		in[v] = true
	}
	extra := map[block.VBN]bool{}
	var removals []block.VBN
	var (
		open      bool
		wd        int
		wfrom, wm uint64
	)
	flush := func() {
		if !open {
			return
		}
		// Pad the window with blocks neither written nor padded before.
		for i := 0; i < rng.Intn(4); i++ {
			s := wfrom + uint64(rng.Intn(block.StripesPerTetris))
			if s >= g.BlocksPerDevice {
				continue
			}
			if v := g.VBNOf(wd, s); !in[v] && !extra[v] {
				extra[v] = true
				wm |= 1 << (s - wfrom)
				removals = append(removals, v)
			}
		}
		tb.AddMask(g, wd, wfrom, wm)
		open = false
	}
	for _, v := range vbns {
		d, dbn := g.Locate(v)
		if open && d == wd && dbn >= wfrom && dbn-wfrom < block.StripesPerTetris && wm>>(dbn-wfrom)&1 == 0 {
			wm |= 1 << (dbn - wfrom)
			continue
		}
		flush()
		open, wd, wfrom = true, d, dbn-min(dbn, uint64(rng.Intn(block.StripesPerTetris)))
		wm = 1 << (dbn - wfrom)
	}
	flush()
	rng.Shuffle(len(removals), func(i, j int) { removals[i], removals[j] = removals[j], removals[i] })
	for _, v := range removals {
		if !tb.Remove(g, v) {
			return nil, fmt.Sprintf("Remove(%d) found nothing", uint64(v))
		}
	}
	if len(removals) > 0 && tb.Remove(g, removals[0]) {
		return nil, fmt.Sprintf("Remove(%d) twice found it twice", uint64(removals[0]))
	}
	if tb.Blocks() != len(vbns) {
		return nil, fmt.Sprintf("Blocks() = %d after adding %d", tb.Blocks(), len(vbns))
	}
	for _, io := range tb.Take(g) {
		io.Chains = slices.Clone(io.Chains)
		out = append(out, io)
	}
	return out, ""
}

// fuzzTape is the tape FuzzTetrisBuild runs: n random bytes (at most 1024) from
// seed with data laid over them from byte at, lengthening the tape where data
// reaches further. Any tape is one (data, n 0), and a long tape is a few
// bytes of input: the fuzzer minimizes an input that finds new coverage by a
// pass quadratic in data's length, and here a shifted or dropped byte
// changes every run after it and the hash that seeds the accumulate path, so
// nearly every candidate fails and the pass ran past the end of a smoke.
func fuzzTape(data []byte, at, n uint16, seed int64) []byte {
	n = min(n, 1024)
	tape := make([]byte, max(int(n), int(at)+len(data)))
	rand.New(rand.NewSource(seed)).Read(tape[:n])
	copy(tape[at:], data)
	return tape
}

// FuzzTetrisBuild: for any geometry — one data device, more than a word of
// them, a ragged last tetris — and a write list in allocator order, shuffled
// or holding a duplicate, the bit-matrix builder returns exactly what the
// sort-per-Build builder it replaced returns, or panics with the same text;
// a builder that has already classified another group's writes, and this
// very list once (panic and all), answers like a fresh one; and so does the
// accumulate path — AddMask windows from any stripe with padding blocks
// Removed again, then Take — on a fresh builder and on that reused one.
func FuzzTetrisBuild(f *testing.F) {
	for _, tape := range [][]byte{
		{3, 1, 0, 200, 5, 0, 0, 10, 63, 0, 0, 40, 20, 3},
		{0, 0, 1, 44, 0, 1, 2, 0, 63, 0, 1, 5, 9, 2, 0, 0, 7},          // D=1, shuffled
		{6, 2, 0, 130, 1, 2, 1, 3, 30, 0, 1, 50, 30, 5, 0, 2, 9},       // D=65, duplicate inside a run
		{7, 1, 19, 135, 9, 3, 2, 60, 63, 4, 0, 0, 5, 0, 2, 0, 5, 7, 1}, // D=100, duplicate across runs
	} {
		f.Add(tape, uint16(0), uint16(0), int64(0))
	}
	f.Add([]byte{5, 0, 0, 90, 0, 2}, uint16(0), uint16(512), int64(1)) // D=64, a hundred random runs
	warmGeo := testGeo()
	warm := randomWrites(warmGeo, rand.New(rand.NewSource(5)), 500)
	f.Fuzz(func(t *testing.T, raw []byte, at, n uint16, seed int64) {
		data := fuzzTape(raw, at, n, seed)
		g, vbns := tapeWrites(data)
		want, wantPanic := buildOutcome(new(sortBuilder).Build, g, vbns)
		got, gotPanic := buildOutcome(BuildTetrises, g, vbns)
		if gotPanic != wantPanic || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v, %d blocks: fresh builder (panic %q) differs from the sort reference (panic %q)", g, len(vbns), gotPanic, wantPanic)
		}
		var tb TetrisBuilder
		tb.Build(warmGeo, warm)
		buildOutcome(tb.Build, g, vbns)
		got, gotPanic = buildOutcome(tb.Build, g, vbns)
		if gotPanic != wantPanic || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v, %d blocks: reused builder (panic %q) differs from the sort reference (panic %q)", g, len(vbns), gotPanic, wantPanic)
		}
		hash := int64(len(data))
		for _, b := range data {
			hash = hash*31 + int64(b)
		}
		rng := rand.New(rand.NewSource(hash))
		for _, acc := range []struct {
			name string
			tb   *TetrisBuilder
		}{{"fresh", new(TetrisBuilder)}, {"reused", &tb}} {
			got, gotPanic = accumulate(acc.tb, g, vbns, rng)
			if gotPanic != wantPanic || !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v, %d blocks: %s builder's accumulate path (panic %q) differs from the sort reference (panic %q)", g, len(vbns), acc.name, gotPanic, wantPanic)
			}
		}
	})
}
