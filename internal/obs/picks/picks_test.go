package picks

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

func TestRingBoundAndCanonicalOrder(t *testing.T) {
	r := NewRecorder(Config{Capacity: 4})
	g := r.Space("arm.rg0")
	for i := 0; i < 10; i++ {
		g.Record(uint64(i/3+1), uint32(i), int64(100-i), int64(99-i), 4, HeapTop, 0)
	}
	recs := g.Records()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, capacity 4", len(recs))
	}
	// The surviving tail is the newest 4 picks, ascending Seq with no gaps.
	for i, rec := range recs {
		if want := uint64(7 + i); rec.Seq != want {
			t.Errorf("record %d Seq = %d, want %d", i, rec.Seq, want)
		}
		if rec.Space != "arm.rg0" {
			t.Errorf("record %d space = %q", i, rec.Space)
		}
	}
	if g.Recorded() != 10 || g.Dropped() != 6 {
		t.Fatalf("recorded/dropped = %d/%d, want 10/6", g.Recorded(), g.Dropped())
	}
	if g.ReasonCount(HeapTop) != 10 || g.ReasonCount(Refill) != 0 {
		t.Fatalf("reason counts wrong: heap_top %d, refill %d",
			g.ReasonCount(HeapTop), g.ReasonCount(Refill))
	}
}

// The status document is the replayable provenance stream: spaces in name
// order, each space's surviving records in ascending Seq.
func TestWriteJSONSortsBySpaceThenSeq(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8})
	r.Space("b").Record(1, 1, 10, -1, 0, BitmapFallback, 0)
	r.Space("a").Record(1, 2, 20, 15, 3, HBPSBin, 0)
	r.Space("a").Record(2, 3, 30, 25, 2, Refill, 0)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Spaces []struct {
			Space    string       `json:"space"`
			Recorded uint64       `json:"recorded"`
			Dropped  uint64       `json:"dropped"`
			Records  []PickRecord `json:"records"`
		} `json:"spaces"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var got []string
	for _, sp := range doc.Spaces {
		if sp.Recorded != uint64(len(sp.Records)) || sp.Dropped != 0 {
			t.Fatalf("%s: recorded/dropped = %d/%d with %d records", sp.Space, sp.Recorded, sp.Dropped, len(sp.Records))
		}
		for _, rec := range sp.Records {
			got = append(got, fmt.Sprintf("%s/%d", rec.Space, rec.Seq))
		}
	}
	if want := []string{"a/1", "a/2", "b/1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical order = %v, want %v", got, want)
	}
}

func TestSpaceReturnsSameRing(t *testing.T) {
	r := NewRecorder(DefaultConfig())
	if r.Space("x") != r.Space("x") {
		t.Fatal("Space handed out two rings for one name")
	}
}

func TestNilRecorderAndRingAreSafe(t *testing.T) {
	var r *Recorder
	g := r.Space("x")
	if g != nil {
		t.Fatal("nil recorder returned a live ring")
	}
	g.Record(1, 1, 1, 1, 1, HeapTop, 0) // must not panic
	if g.Records() != nil || g.Recorded() != 0 || g.Dropped() != 0 || g.ReasonCount(HeapTop) != 0 {
		t.Fatal("nil ring leaked state")
	}
	var buf bytes.Buffer
	if r.Spaces() != nil || r.WriteJSON(&buf) != nil || buf.String() != "{\"spaces\":[]}\n" {
		t.Fatal("nil recorder leaked state")
	}
}

func TestWriteJSONShape(t *testing.T) {
	r := NewRecorder(Config{Capacity: 2})
	r.Space("arm.vol.va").Record(3, 7, 1000, 900, 5, HBPSBin, 77)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Spaces []struct {
			Space    string            `json:"space"`
			Recorded uint64            `json:"recorded"`
			Reasons  map[string]uint64 `json:"reasons"`
			Records  []PickRecord      `json:"records"`
		} `json:"spaces"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(doc.Spaces) != 1 || doc.Spaces[0].Space != "arm.vol.va" ||
		doc.Spaces[0].Recorded != 1 || doc.Spaces[0].Reasons["hbps_bin"] != 1 ||
		len(doc.Spaces[0].Records) != 1 || doc.Spaces[0].Records[0].Score != 1000 ||
		doc.Spaces[0].Records[0].TraceID != 77 {
		t.Fatalf("unexpected document: %s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"trace_id":77`)) {
		t.Fatalf("trace_id missing from JSON: %s", buf.String())
	}
}
