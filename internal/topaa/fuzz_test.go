package topaa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"waflfs/internal/aa"
	"waflfs/internal/block"
	"waflfs/internal/hbps"
	"waflfs/internal/heapcache"
)

// sortedLoadRAIDAware is the decoder LoadRAIDAware replaced, which could not
// know its group's AA count: it found duplicates by sorting the ids. It is
// FuzzLoadRAIDAware's oracle.
func sortedLoadRAIDAware(buf []byte) ([]heapcache.Entry, error) {
	if len(buf) != block.BlockSize {
		return nil, fmt.Errorf("topaa: RAID-aware block is %d bytes, want %d", len(buf), block.BlockSize)
	}
	le := binary.LittleEndian
	n := 0
	for n < RAIDAwareEntries && le.Uint32(buf[8*n:]) != invalidID {
		n++
	}
	for i := n; i < RAIDAwareEntries; i++ {
		if le.Uint32(buf[8*i:]) != invalidID {
			return nil, errors.New("topaa: entry after terminator")
		}
	}
	if n == 0 {
		return nil, nil
	}
	var ids [RAIDAwareEntries]uint32
	out := make([]heapcache.Entry, n)
	for i := range out {
		ids[i] = le.Uint32(buf[8*i:])
		out[i] = heapcache.Entry{ID: aa.ID(ids[i]), Score: uint64(le.Uint32(buf[8*i+4:]))}
		if i > 0 && out[i-1].Score < out[i].Score {
			return nil, errors.New("topaa: scores not descending")
		}
	}
	slices.Sort(ids[:n])
	for i := 1; i < n; i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("topaa: duplicate AA %d", ids[i])
		}
	}
	return out, nil
}

// raidBlock is the buffer FuzzLoadRAIDAware decodes: the first n slots (at
// most RAIDAwareEntries) hold AAs 0, 1, 2, … at descending scores and the
// rest terminators, in BlockSize+size bytes, with data laid over it from
// byte at, lengthening it where data reaches further. Any byte string is one
// such buffer (data itself, at 0, size -BlockSize), and a block of hundreds
// of entries is a few bytes of data. That matters because the fuzzer
// minimizes every input that finds new coverage by a pass quadratic in
// data's length, during which the worker runs nothing new: with the whole
// block as data, one such input held each worker for the rest of a 5 s run.
func raidBlock(data []byte, at, n uint16, size int16) []byte {
	buf := bytes.Repeat([]byte{0xff}, max(block.BlockSize+int(size), 0))
	for i := 0; i < min(int(n), RAIDAwareEntries) && 8*i+8 <= len(buf); i++ {
		binary.LittleEndian.PutUint32(buf[8*i:], uint32(i))
		binary.LittleEndian.PutUint32(buf[8*i+4:], uint32(RAIDAwareEntries-i))
	}
	if end := int(at) + len(data); end > len(buf) {
		buf = append(buf, make([]byte, end-len(buf))...)
	}
	copy(buf[at:], data)
	return buf
}

// FuzzLoadRAIDAware holds the bounded decoder to the sort-based one it
// replaced plus the id-range check mount used to make itself: for any bytes
// and AA count it accepts exactly what they accepted, decoding the same
// entries, through a decoder reused across calls as the store reuses one.
// It never panics.
func FuzzLoadRAIDAware(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(300), int16(0), uint16(300))               // 300 entries
	f.Add([]byte{}, uint16(0), uint16(0), int16(0), uint16(1))                   // none
	f.Add([]byte{}, uint16(0), uint16(RAIDAwareEntries), int16(0), uint16(600))  // every slot
	f.Add([]byte{}, uint16(0), uint16(0), int16(-block.BlockSize), uint16(300))  // no bytes
	f.Add([]byte{}, uint16(0), uint16(300), int16(-1), uint16(1024))             // a byte short
	f.Add([]byte{}, uint16(0), uint16(300), int16(0), uint16(299))               // AA 299 out of range
	f.Add([]byte{3, 0, 0, 0}, uint16(8*10), uint16(300), int16(0), uint16(300))  // AA 3 twice
	f.Add([]byte{0xff, 0xff}, uint16(8*5+4), uint16(300), int16(0), uint16(300)) // a score rises
	f.Add([]byte{9, 0, 0, 0}, uint16(8*400), uint16(300), int16(0), uint16(600)) // an entry after the terminator
	var d raidDecoder
	f.Fuzz(func(t *testing.T, data []byte, at, n uint16, size int16, numAAs uint16) {
		buf := raidBlock(data, at, n, size)
		want, wantErr := sortedLoadRAIDAware(buf)
		for _, e := range want {
			if int(e.ID) >= int(numAAs) {
				wantErr = errors.New("out of range")
			}
		}
		got, err := d.decode(buf, int(numAAs))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%d AAs: bounded decoder says %v, oracle %v", numAAs, err, wantErr)
		}
		if err == nil && !slices.Equal(got, want) {
			t.Fatalf("%d AAs: bounded decoder and oracle decode different entries", numAAs)
		}
		if pkg, err := LoadRAIDAware(buf, int(numAAs)); (err == nil) != (wantErr == nil) || !slices.Equal(pkg, got) {
			t.Fatalf("%d AAs: LoadRAIDAware disagrees with a reused decoder: %v", numAAs, err)
		}
	})
}

// FuzzLoadAgnostic asserts the RAID-agnostic (HBPS page) decoder never
// panics and only yields structures whose invariants hold, listing each id
// once and none the decoder's bound excludes — a listed id indexes an array,
// so a page must not be able to name one the loader will not index.
func FuzzLoadAgnostic(f *testing.F) {
	h := hbps.New(hbps.DefaultConfig())
	for i := 0; i < 500; i++ {
		h.Track(aa.ID(i), uint32(i%32769))
	}
	good := h.Marshal()
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 2*hbps.PageSize))
	// The list page starts the second page, four bytes an id.
	outOfRange := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(outOfRange[hbps.PageSize:], ^uint32(0))
	f.Add(outOfRange)
	duplicate := append([]byte(nil), good...)
	copy(duplicate[hbps.PageSize+4:hbps.PageSize+8], duplicate[hbps.PageSize:])
	f.Add(duplicate)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := hbps.Load(data)
		if err != nil {
			return
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("decoded HBPS violates invariants: %v", err)
		}
		seen := make(map[aa.ID]bool, got.ListLen())
		got.EachListed(func(id aa.ID, _ int) {
			if id >= hbps.MaxLoadItems || seen[id] {
				t.Fatalf("decoded list holds id %d (out of bound, or twice)", id)
			}
			seen[id] = true
		})
	})
}
