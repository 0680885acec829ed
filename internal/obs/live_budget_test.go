package obs_test

import (
	"testing"

	"waflfs/internal/obs"
	"waflfs/internal/obs/picks"
	"waflfs/internal/obs/tsdb"
)

// The PR-5 sinks sit on the allocation and CP hot paths behind nil-safe
// receivers, so the disabled state must cost one predictable branch — the
// same budget TestCounterHotPathBudget enforces for counters.
func TestLiveSinkDisabledPathBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; skipped in -short")
	}
	cases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"nil-ring-record", func(b *testing.B) {
			var r *picks.Ring
			for i := 0; i < b.N; i++ {
				r.Record(uint64(i), 1, 100, 90, 8, picks.HeapTop, 0)
			}
		}},
		{"nil-store-observe", func(b *testing.B) {
			var s *tsdb.Store
			for i := 0; i < b.N; i++ {
				s.Observe("x", uint64(i), 0, 1)
			}
		}},
		{"nil-latest-publish", func(b *testing.B) {
			var l *obs.Latest
			for i := 0; i < b.N; i++ {
				l.Publish("x", obs.Snapshot{})
			}
		}},
	}
	for _, tc := range cases {
		r := testing.Benchmark(tc.fn)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if ns >= 10 {
			t.Errorf("%s = %v ns/op, want < 10", tc.name, ns)
		}
	}
}
