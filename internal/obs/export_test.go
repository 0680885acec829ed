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
