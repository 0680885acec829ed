package wafl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
)

// The reference for snapshot.go: the flat scheme it replaced (one count per
// written pair, the active image's reference included, and full image copies),
// driven side by side with a real System. The oracle keeps virtual VBNs only —
// the real system hands them out, and relocation (cleaner, Demote, TierOut)
// may move a pair's physical block at any boundary — so the physical side is
// checked as a property: every holder of a pair points at the same allocated
// block, and nothing else is allocated.

type flatOracle struct {
	rc     map[block.VBN]int
	active [][]block.VBN            // per LUN, per LBA
	snaps  []map[string][]block.VBN // per LUN, by name
	// owed holds the virtual VBNs freed whose bitmap bit may still be set:
	// under delayed frees they wait for a reclaim.
	owed  map[block.VBN]bool
	freed uint64
}

func (o *flatOracle) unref(v block.VBN) bool {
	if o.rc[v]--; o.rc[v] > 0 {
		return false
	}
	delete(o.rc, v)
	o.owed[v] = true
	o.freed++
	return true
}

// unrefAll drops one reference of every written block of an image and
// returns how many that freed.
func (o *flatOracle) unrefAll(img []block.VBN) (freed int) {
	for _, v := range img {
		if v != block.InvalidVBN && o.unref(v) {
			freed++
		}
	}
	return freed
}

func (o *flatOracle) refAll(img []block.VBN) {
	for _, v := range img {
		if v != block.InvalidVBN {
			o.rc[v]++
		}
	}
}

// oracleRig drives a System and the oracle with the same operations and
// compares them after each.
type oracleRig struct {
	t       testing.TB
	s       *System
	vol     *FlexVol
	luns    []*LUN
	dirty   []map[uint64]bool // LBAs written since the last alloc stage
	o       *flatOracle
	delayed bool
	names   int
}

const oracleLUNBlocks = 600

func newOracleRig(t testing.TB, pipeline, delayed bool, shards int) *oracleRig {
	tun := DefaultTunables()
	tun.CPEveryOps = 1 << 30
	tun.AllocShards = shards
	tun.Pipeline, tun.DelayedVirtFrees, tun.FlashPool = pipeline, delayed, true
	tun.Obs = &ObsOptions{Name: "oracle", Watchdogs: true}
	specs := []GroupSpec{
		// A flash tier small enough that the tape's writes cycle through it,
		// so the cleaner finds live blocks — snapshot-held ones among them —
		// in its best AAs.
		{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 1 << 9, Media: aa.MediaSSD, EraseBlockBlocks: 64, StripesPerAA: 32},
		{DataDevices: 3, ParityDevices: 1, BlocksPerDevice: 1 << 11, Media: aa.MediaHDD, StripesPerAA: 64},
	}
	s := NewSystem(specs, []VolSpec{{Name: "v", Blocks: 2 * aa.RAIDAgnosticBlocks}}, tun, 5)
	s.Agg.wd.sample = 1 << 20
	s.Agg.AddObjectPool(PoolSpec{Blocks: aa.RAIDAgnosticBlocks})
	r := &oracleRig{t: t, s: s, vol: s.Agg.Vols()[0], delayed: delayed,
		o: &flatOracle{rc: map[block.VBN]int{}, owed: map[block.VBN]bool{}}}
	for _, name := range []string{"a", "b"} {
		r.luns = append(r.luns, r.vol.CreateLUN(name, oracleLUNBlocks))
		r.dirty = append(r.dirty, map[uint64]bool{})
		img := make([]block.VBN, oracleLUNBlocks)
		for i := range img {
			img[i] = block.InvalidVBN
		}
		r.o.active = append(r.o.active, img)
		r.o.snaps = append(r.o.snaps, map[string][]block.VBN{})
	}
	return r
}

func (r *oracleRig) write(lun int, lba uint64, n int) {
	r.s.Write(r.luns[lun], lba, n)
	for i := 0; i < n; i++ {
		r.dirty[lun][lba+uint64(i)] = true
	}
	r.check("write")
}

// cp runs a CP boundary; the oracle replays the alloc stage — LUNs in name
// order, LBAs ascending, the new pair installed before the old one is dropped
// — with the VBNs the real allocator chose.
func (r *oracleRig) cp() {
	r.s.CP()
	for i, l := range r.luns {
		lbas := make([]uint64, 0, len(r.dirty[i]))
		for lba := range r.dirty[i] {
			lbas = append(lbas, lba)
		}
		slices.Sort(lbas)
		for _, lba := range lbas {
			v := l.blocks[lba].virt
			if r.o.rc[v] != 0 || r.delayed && r.o.owed[v] {
				r.t.Fatalf("%s[%d] was given virtual %v, which has %d holders (owed a free: %v)", l.Name, lba, v, r.o.rc[v], r.o.owed[v])
			}
			delete(r.o.owed, v) // freed earlier in this very stage, and reused
			r.o.rc[v] = 1
			old := r.o.active[i][lba]
			if r.o.active[i][lba] = v; old != block.InvalidVBN {
				r.o.unref(old)
			}
		}
		clear(r.dirty[i])
	}
	r.check("CP")
}

func (r *oracleRig) drain() {
	r.s.Drain()
	r.check("Drain")
}

func (r *oracleRig) quiesce() {
	if !r.s.atBoundary() {
		r.cp()
		r.drain()
	}
}

// refused reports whether a boundary-only call was made off a boundary, and
// fails unless the System said so.
func (r *oracleRig) refused(op string, err error) bool {
	if r.s.atBoundary() {
		if err != nil {
			r.t.Fatalf("%s: %v", op, err)
		}
		return false
	}
	if !errors.Is(err, ErrCPInProgress) {
		r.t.Fatalf("%s off a boundary: err = %v", op, err)
	}
	return true
}

func (r *oracleRig) punch(lun int, sel func(uint64) bool) {
	got, err := r.s.PunchHoles(r.luns[lun], sel)
	if r.refused("PunchHoles", err) {
		return
	}
	want := 0
	for lba, v := range r.o.active[lun] {
		if v != block.InvalidVBN && sel(uint64(lba)) {
			if r.o.unref(v) {
				want++
			}
			r.o.active[lun][lba] = block.InvalidVBN
		}
	}
	if got != want {
		r.t.Fatalf("PunchHoles freed %d, oracle %d", got, want)
	}
	r.check("PunchHoles")
}

func (r *oracleRig) create(lun int) string {
	name := fmt.Sprint("s", r.names)
	_, err := r.s.CreateSnapshot(r.luns[lun], name)
	if r.refused("CreateSnapshot", err) {
		return ""
	}
	r.names++
	img := slices.Clone(r.o.active[lun])
	r.o.refAll(img)
	r.o.snaps[lun][name] = img
	r.check("CreateSnapshot")
	return name
}

func (r *oracleRig) delete(lun int, name string) {
	got, err := r.s.DeleteSnapshot(r.luns[lun], name)
	if r.refused("DeleteSnapshot", err) {
		return
	}
	want := r.o.unrefAll(r.o.snaps[lun][name])
	delete(r.o.snaps[lun], name)
	if got != want {
		r.t.Fatalf("DeleteSnapshot %s freed %d, oracle %d", name, got, want)
	}
	r.check("DeleteSnapshot")
}

func (r *oracleRig) restore(lun int, name string) {
	if r.refused("RestoreSnapshot", r.s.RestoreSnapshot(r.luns[lun], name)) {
		return
	}
	// New references first, so shared blocks never pass through zero.
	r.o.refAll(r.o.snaps[lun][name])
	r.o.unrefAll(r.o.active[lun])
	copy(r.o.active[lun], r.o.snaps[lun][name])
	r.check("RestoreSnapshot")
}

// relocate moves physical blocks under live snapshots; nothing the oracle
// counts changes.
func (r *oracleRig) relocate(kind, arg byte) {
	r.quiesce()
	l := r.luns[arg&1]
	sel := func(lba uint64) bool { return lba%4 == uint64(arg>>1&3) }
	switch kind % 3 {
	case 0:
		r.s.CleanBestAAs(r.s.Agg.groups[arg&1], 1+int(arg>>1&3))
		r.check("CleanBestAAs")
	case 1:
		r.s.Demote(l, sel)
		r.check("Demote")
	case 2:
		r.s.TierOut(l, sel)
		r.check("TierOut")
	}
}

// check compares the System with the oracle.
func (r *oracleRig) check(step string) {
	t, s, o := r.t, r.s, r.o
	// Same images; one allocated physical block per pair, every holder
	// pointing at it; nothing else allocated.
	physOf, pairOf := map[block.VBN]block.VBN{}, map[block.VBN]block.VBN{}
	same := func(what string, got []blockPtr, want []block.VBN) {
		for lba, p := range got {
			if p.virt != want[lba] {
				t.Fatalf("after %s: %s[%d] holds virtual %v, oracle %v", step, what, lba, p.virt, want[lba])
			}
			if p.virt == block.InvalidVBN {
				continue
			}
			if q, seen := physOf[p.virt]; seen && q != p.phys {
				t.Fatalf("after %s: %s[%d] holds pair %v at physical %v, another holder at %v", step, what, lba, p.virt, p.phys, q)
			}
			if q, taken := pairOf[p.phys]; taken && q != p.virt {
				t.Fatalf("after %s: physical %v backs pairs %v and %v", step, p.phys, q, p.virt)
			}
			physOf[p.virt], pairOf[p.phys] = p.phys, p.virt
			if !s.Agg.bm.Test(p.phys) {
				t.Fatalf("after %s: %s[%d] holds freed physical %v", step, what, lba, p.phys)
			}
		}
	}
	for i, l := range r.luns {
		same(l.Name, l.blocks, o.active[i])
		if len(l.snaps) != len(o.snaps[i]) {
			t.Fatalf("after %s: LUN %s has snapshots %v, oracle %d", step, l.Name, l.SnapshotNames(), len(o.snaps[i]))
		}
		for name, img := range o.snaps[i] {
			same(l.Name+"@"+name, snapImage(l.snaps[name]), img)
		}
	}
	if len(physOf) != len(o.rc) || s.Agg.bm.Used() != uint64(len(o.rc)) {
		t.Fatalf("after %s: %d pairs held, %d physical blocks allocated, oracle counts %d", step, len(physOf), s.Agg.bm.Used(), len(o.rc))
	}
	// The virtual bitmap: the oracle's pairs, plus the frees still queued.
	for v := range o.rc {
		if !r.vol.bm.Test(v) {
			t.Fatalf("after %s: held virtual %v is free", step, v)
		}
	}
	for v := range o.owed {
		if !r.vol.bm.Test(v) {
			delete(o.owed, v)
		}
	}
	if len(o.owed) != r.vol.PendingFrees() || r.vol.bm.Used() != uint64(len(o.rc)+len(o.owed)) {
		t.Fatalf("after %s: %d virtual blocks allocated with %d frees queued, oracle holds %d and is owed %d",
			step, r.vol.bm.Used(), r.vol.PendingFrees(), len(o.rc), len(o.owed))
	}
	if got := s.Counters().BlocksFreed; got != o.freed {
		t.Fatalf("after %s: %d blocks freed, oracle %d", step, got, o.freed)
	}
	if err := r.vol.CheckRefcounts(); err != nil {
		t.Fatalf("after %s: %v", step, err)
	}
	if v := s.Agg.WatchdogViolations(); len(v) > 0 {
		t.Fatalf("after %s: watchdogs: %v", step, v)
	}
}

// run plays a byte tape: writes of 1–8 blocks, CPs, drains, punches, snapshot
// create/delete/restore with at most six live per LUN — a delete or restore
// picks its snapshot by name order or by creation position — relocations.
func (r *oracleRig) run(tape []byte) {
	next := func() byte {
		if len(tape) == 0 {
			return 0
		}
		b := tape[0]
		tape = tape[1:]
		return b
	}
	for len(tape) > 0 {
		op, arg := next(), next()
		lun := int(arg & 1)
		names := r.luns[lun].SnapshotNames()
		pick := func() string {
			if chain := r.luns[lun].chain; arg&2 != 0 {
				return chain[int(arg>>2)%len(chain)].Name
			}
			return names[int(arg>>2)%len(names)]
		}
		if op>>4 != 0 && op%16 >= 10 {
			r.quiesce() // most boundary-only ops are made at one
		}
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5, 6:
			lba := (uint64(arg)<<8 | uint64(next())) >> 1 % (oracleLUNBlocks - 8)
			r.write(lun, lba, 1+int(op>>4%8))
		case 7, 8:
			r.cp()
		case 9:
			r.drain()
		case 10:
			mod, rem := uint64(2+arg>>1%7), uint64(arg>>4)
			r.punch(lun, func(lba uint64) bool { return lba%mod == rem%mod })
		case 11:
			if len(names) < 6 {
				r.create(lun)
				break
			}
			fallthrough
		case 12:
			if len(names) > 0 {
				r.delete(lun, pick())
			}
		case 13:
			if len(names) > 0 {
				r.restore(lun, pick())
			}
		case 14, 15:
			r.relocate(op>>4, arg)
		}
	}
	r.quiesce()
	for lun, l := range r.luns {
		for _, name := range l.SnapshotNames() {
			r.delete(lun, name)
		}
	}
	r.cp()
	r.drain()
	if r.vol.rc.Len() != 0 || r.vol.live != len(r.o.rc) || r.luns[0].rcPairs+r.luns[1].rcPairs != 0 {
		t := r.t
		t.Fatalf("with no snapshot left the table holds %d pairs; %d live, oracle %d", r.vol.rc.Len(), r.vol.live, len(r.o.rc))
	}
}

var oracleConfigs = []struct{ pipeline, delayed bool }{{false, false}, {false, true}, {true, false}, {true, true}}

func TestSnapshotOpsMatchFlatOracle(t *testing.T) {
	for i, c := range oracleConfigs {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed*4 + int64(i)))
			tape := make([]byte, 1500)
			rng.Read(tape)
			newOracleRig(t, c.pipeline, c.delayed, 0).run(tape)
		}
	}
}

// A restore to the oldest of three snapshots stores pairs twice across the
// chain; a fourth snapshot and a second restore stack that on itself, and the
// four snapshots then go in every one of the 24 orders.
func TestRestoreOlderThenDeleteInEveryOrder(t *testing.T) {
	var orders [][]int
	var permute func(done []int, left []int)
	permute = func(done, left []int) {
		if len(left) == 0 {
			orders = append(orders, done)
			return
		}
		for i, k := range left {
			permute(append(slices.Clip(done), k), append(slices.Clone(left[:i]), left[i+1:]...))
		}
	}
	permute(nil, []int{0, 1, 2, 3})
	for i, c := range oracleConfigs {
		for _, order := range orders {
			r := newOracleRig(t, c.pipeline, c.delayed, 0)
			rng := rand.New(rand.NewSource(int64(i)))
			var names [4]string
			churn := func() {
				for k := 0; k < 60; k++ {
					r.write(0, uint64(rng.Intn(300)), 1+rng.Intn(8))
				}
				r.quiesce()
			}
			r.write(0, 0, 8)
			for round := 0; round < 3; round++ {
				churn()
				names[round] = r.create(0)
			}
			churn()
			r.punch(0, func(lba uint64) bool { return lba%5 == 0 })
			r.restore(0, names[0])
			r.write(0, 10, 8)
			r.quiesce()
			names[3] = r.create(0)
			churn()
			r.restore(0, names[0])
			r.write(0, 400, 8) // never written before
			r.quiesce()
			for _, k := range order {
				r.delete(0, names[k])
			}
			r.run(nil)
		}
	}
}

// FuzzSnapshotOps is the oracle test over fuzzer-chosen tapes; the first
// byte's low two bits pick the pipeline depth and whether virtual frees are
// delayed, and its bit 2 the staging-queue depth (AllocShards 0 or 4).
func FuzzSnapshotOps(f *testing.F) {
	f.Add([]byte{0, 0x10, 2, 7, 7, 0, 0x1b, 0, 0x30, 2, 9, 0x17, 0, 0x1d, 0, 0x1c, 0})
	f.Add([]byte{3, 0x70, 0, 0, 0x71, 1, 0, 8, 0, 9, 0, 0x1b, 0, 0x1b, 1, 0x20, 0, 5, 0x18, 0, 0x1b, 0, 0x1a, 6, 0x1d, 0, 0x1c, 2, 0x1c, 0})
	// The same tape through the staging queue (bit 2: AllocShards 4).
	f.Add([]byte{7, 0x70, 0, 0, 0x71, 1, 0, 8, 0, 9, 0, 0x1b, 0, 0x1b, 1, 0x20, 0, 5, 0x18, 0, 0x1b, 0, 0x1a, 6, 0x1d, 0, 0x1c, 2, 0x1c, 0})
	f.Add([]byte{2, 0x40, 0, 9, 0x0b, 0, 0x1e, 0, 0x2e, 2, 0x3f, 1, 0x1b, 1, 0x50, 3, 3, 0x2f, 4, 0x1d, 1})
	// Never-written LBAs written under two snapshots, a restore to the oldest
	// by position, then a delete by position.
	f.Add([]byte{0, 0x0b, 0, 0x70, 0x10, 0, 7, 0, 0x0b, 0, 0x30, 0x20, 0, 7, 0, 0x0d, 2, 0x0c, 6, 7, 0})
	f.Add([]byte{3, 0x0b, 1, 0x71, 0x11, 0, 7, 0, 0x1b, 1, 0x31, 0x21, 0, 7, 0, 0x1d, 3, 0x70, 0x21, 0, 0x1c, 3, 7, 0})
	// A punch under one snapshot, then the same LBAs written under a newer
	// one; the older goes first.
	f.Add([]byte{1, 0x70, 0, 0, 7, 0, 0x0b, 0, 0x1a, 2, 0x0b, 0, 0x70, 0, 0, 7, 0, 0x0c, 2, 7, 0})
	f.Add([]byte{2, 0x71, 1, 0, 7, 0, 9, 0, 0x1b, 1, 0x1a, 3, 0x1b, 1, 0x71, 1, 0, 7, 0, 9, 0, 0x1d, 3, 0x1c, 3, 7, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		c := oracleConfigs[tape[0]%4]
		shards := int(tape[0] & 4)
		newOracleRig(t, c.pipeline, c.delayed, shards).run(tape[1:min(len(tape), 600)])
	})
}
