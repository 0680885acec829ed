package obs_test

import (
	"bytes"
	"testing"

	"waflfs/internal/obs/optrace"
)

// The collapsed-stack file -trace-collapse writes for flamegraph tooling is
// folded from the sampled op traces: one "<space>;op.<kind>;<frames> <ns>"
// line per unique stack, summing the latencies of the ops that share a
// stack; a trace with no timed span is skipped, and the bytes do not depend
// on the order traces were recorded in.
func TestWriteCollapsed(t *testing.T) {
	device := func(rg string, ns uint64) []optrace.Span {
		return []optrace.Span{
			{Name: "base_cpu", DurNS: 10},
			{Name: "alloc", Detail: "annotation"},
			{Name: "device", DurNS: ns - 10, Children: []optrace.Span{{Name: rg, DurNS: ns - 10}}},
		}
	}
	traces := []optrace.Trace{
		{ID: 1, Space: "arm.vol.va", Kind: "write", LatNS: 500, Spans: device("rg0", 500)},
		{ID: 2, Space: "arm.vol.va", Kind: "write", LatNS: 300, Spans: device("rg0", 300)},
		{ID: 3, Space: "arm.vol.va", Kind: "write", LatNS: 200, Spans: device("rg1", 200)},
		{ID: 4, Space: "arm.vol.va", Kind: "read", LatNS: 70, Spans: []optrace.Span{{Name: "base_cpu", DurNS: 70}}},
		{ID: 5, Space: "arm.vol.va", Kind: "write", LatNS: 40, Spans: []optrace.Span{{Name: "alloc", Detail: "no time"}}},
		{ID: 6, Space: "base.vol.vb", Kind: "write", LatNS: 90, Spans: device("rg0", 90)},
	}
	collapse := func(order []int) string {
		r := optrace.NewRecorder(optrace.Config{Rate: 1, Capacity: 8, Seed: 5})
		for _, i := range order {
			r.Space(traces[i].Space).Add(traces[i])
		}
		var buf bytes.Buffer
		n, err := r.WriteCollapsed(&buf)
		if err != nil || n != 4 {
			t.Fatalf("WriteCollapsed = %d stacks, %v; want 4 stacks", n, err)
		}
		return buf.String()
	}
	got := collapse([]int{0, 1, 2, 3, 4, 5})
	want := "arm.vol.va;op.read;base_cpu 70\n" +
		"arm.vol.va;op.write;device;rg0 800\n" +
		"arm.vol.va;op.write;device;rg1 200\n" +
		"base.vol.vb;op.write;device;rg0 90\n"
	if got != want {
		t.Fatalf("collapsed output:\n%s\nwant:\n%s", got, want)
	}
	if perm := collapse([]int{5, 2, 4, 0, 3, 1}); perm != got {
		t.Fatalf("collapsed output depends on recording order:\n%s\nvs\n%s", perm, got)
	}
}
