package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// scriptedRegistry builds the tiny scripted run used by the golden tests.
func scriptedRegistry() *Registry {
	r := NewRegistry()
	r.Counter("wafl.ops").Add(120)
	r.Counter("wafl.cp.count").Add(3)
	r.Gauge("rg0.heap.size").Set(14)
	r.VolatileCounter("wafl.cp.flush_wall_ns").Add(5000)
	h := r.Histogram("rg0.dev0.busy_ns", []uint64{1000, 10000})
	h.Observe(500)
	h.Observe(500)
	h.Observe(20000)
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, scriptedRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE rg0_dev0_busy_ns histogram
rg0_dev0_busy_ns_bucket{le="1000"} 2
rg0_dev0_busy_ns_bucket{le="10000"} 2
rg0_dev0_busy_ns_bucket{le="+Inf"} 3
rg0_dev0_busy_ns_sum 21000
rg0_dev0_busy_ns_count 3
# TYPE rg0_heap_size gauge
rg0_heap_size 14
# TYPE wafl_cp_count counter
wafl_cp_count 3
# TYPE wafl_cp_flush_wall_ns counter
wafl_cp_flush_wall_ns 5000
# TYPE wafl_ops counter
wafl_ops 120
`
	if got := buf.String(); got != want {
		t.Fatalf("prometheus output not byte-stable:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	rec := NewCSVRecorder(&buf)
	r := scriptedRegistry()
	// Record in scrambled arm/CP order — concurrent arms interleave
	// arbitrarily — and expect Flush to impose the canonical (sys, cp)
	// order on the byte stream.
	rec.Record("armB", 1, r.Snapshot())
	rec.Record("armA", 1, r.Snapshot())
	r.Counter("wafl.ops").Add(30)
	rec.Record("armA", 2, r.Snapshot())
	if buf.Len() != 0 {
		t.Fatalf("Record must buffer, but %d bytes reached the writer", buf.Len())
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `sys,cp,metric,kind,value
armA,1,rg0.dev0.busy_ns.sum,histogram,21000
armA,1,rg0.dev0.busy_ns.count,histogram,3
armA,1,rg0.heap.size,gauge,14
armA,1,wafl.cp.count,counter,3
armA,1,wafl.ops,counter,120
armA,2,rg0.dev0.busy_ns.sum,histogram,21000
armA,2,rg0.dev0.busy_ns.count,histogram,3
armA,2,rg0.heap.size,gauge,14
armA,2,wafl.cp.count,counter,3
armA,2,wafl.ops,counter,150
armB,1,rg0.dev0.busy_ns.sum,histogram,21000
armB,1,rg0.dev0.busy_ns.count,histogram,3
armB,1,rg0.heap.size,gauge,14
armB,1,wafl.cp.count,counter,3
armB,1,wafl.ops,counter,120
`
	if got := buf.String(); got != want {
		t.Fatalf("csv output not byte-stable:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if rec.Rows() != 15 {
		t.Fatalf("rows = %d, want 15", rec.Rows())
	}
	if rec.Err() != nil {
		t.Fatalf("unexpected recorder error: %v", rec.Err())
	}
}

func TestCSVIncludesVolatileWhenAsked(t *testing.T) {
	var buf bytes.Buffer
	rec := NewCSVRecorder(&buf).IncludeVolatile()
	rec.Record("a", 1, scriptedRegistry().Snapshot())
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("wafl.cp.flush_wall_ns")) {
		t.Fatal("IncludeVolatile must emit volatile metrics")
	}
}

func TestCSVQuoting(t *testing.T) {
	var buf bytes.Buffer
	rec := NewCSVRecorder(&buf)
	r := NewRegistry()
	r.Counter("x").Add(1)
	rec.Record(`arm,"1"`, 1, r.Snapshot())
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "sys,cp,metric,kind,value\n\"arm,\"\"1\"\"\",1,x,counter,1\n"
	if got := buf.String(); got != want {
		t.Fatalf("quoting wrong:\n got %q\nwant %q", got, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	snap := scriptedRegistry().Snapshot()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "fsinspect", snap); err != nil {
		t.Fatal(err)
	}
	var back NamedSnapshot
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "fsinspect" {
		t.Fatalf("name = %q", back.Name)
	}
	if !reflect.DeepEqual(back.Snapshot, snap) {
		t.Fatalf("JSON round trip changed the snapshot:\n got %+v\nwant %+v", back.Snapshot, snap)
	}
}
