package optrace

import (
	"bytes"
	"strings"
	"testing"

	"waflfs/internal/obs"
)

func TestTraceIDDeterministicAndNonzero(t *testing.T) {
	a := TraceID(11, "arm.vol.va", KindWrite, 7)
	b := TraceID(11, "arm.vol.va", KindWrite, 7)
	if a != b {
		t.Fatalf("trace id not deterministic: %#x vs %#x", a, b)
	}
	if a == 0 {
		t.Fatalf("trace id must be nonzero")
	}
	if TraceID(11, "arm.vol.vb", KindWrite, 7) == a {
		t.Fatalf("distinct spaces must yield distinct ids")
	}
	if TraceID(11, "arm.vol.va", KindRead, 7) == a {
		t.Fatalf("distinct kinds must yield distinct ids")
	}
	if TraceID(12, "arm.vol.va", KindWrite, 7) == a {
		t.Fatalf("distinct seeds must yield distinct ids")
	}
}

func TestRingSamplingAndEviction(t *testing.T) {
	r := NewRecorder(Config{Rate: 4, SlowNS: 1000, Capacity: 3, Seed: 1})
	g := r.Space("s.vol.v")
	var recorded []uint64
	for i := 0; i < 20; i++ {
		id, seq, sampled := g.Begin(KindWrite)
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		if sampled != (seq%4 == 0) {
			t.Fatalf("seq %d: sampled = %v", seq, sampled)
		}
		lat := uint64(100) // below slow threshold
		rec, slow := g.Decide(sampled, lat)
		if slow {
			t.Fatalf("seq %d: unexpectedly slow", seq)
		}
		if rec != sampled {
			t.Fatalf("seq %d: record = %v, want %v", seq, rec, sampled)
		}
		if rec {
			g.Add(Trace{ID: id, Space: "s.vol.v", Kind: "write", Seq: seq, LatNS: lat})
			recorded = append(recorded, seq)
		}
	}
	if g.Sampled() != 5 { // seqs 4,8,12,16,20
		t.Fatalf("sampled = %d, want 5", g.Sampled())
	}
	if g.Dropped() != 2 { // capacity 3
		t.Fatalf("dropped = %d, want 2", g.Dropped())
	}
	got := g.Traces()
	if len(got) != 3 {
		t.Fatalf("surviving traces = %d, want 3", len(got))
	}
	// Oldest-first eviction keeps the newest 3: seqs 12, 16, 20.
	for i, want := range recorded[len(recorded)-3:] {
		if got[i].Seq != want {
			t.Fatalf("trace[%d].Seq = %d, want %d", i, got[i].Seq, want)
		}
	}
}

func TestSlowGateOverridesRate(t *testing.T) {
	r := NewRecorder(Config{Rate: 1000, SlowNS: 5000, Capacity: 8, Seed: 1})
	g := r.Space("s.vol.v")
	_, _, sampled := g.Begin(KindRead)
	if sampled {
		t.Fatalf("seq 1 should not be rate-sampled at rate 1000")
	}
	rec, slow := g.Decide(sampled, 5000)
	if !rec || !slow {
		t.Fatalf("latency at threshold must record via slow gate (rec=%v slow=%v)", rec, slow)
	}
	rec, slow = g.Decide(sampled, 4999)
	if rec || slow {
		t.Fatalf("latency below threshold must not record (rec=%v slow=%v)", rec, slow)
	}
}

func TestExemplarTracksWorstBucket(t *testing.T) {
	r := NewRecorder(Config{Rate: 1, Capacity: 8, Seed: 3})
	g := r.Space("s.vol.v")
	add := func(id, lat uint64) {
		g.Add(Trace{ID: id, Space: "s.vol.v", Kind: "write", LatNS: lat})
	}
	add(10, 2_000)
	add(11, 40_000_000) // slower bucket
	add(12, 3_000)      // faster again: worst bucket keeps id 11
	id, lat, ok := r.Exemplar("s.vol.v")
	if !ok || id != 11 || lat != 40_000_000 {
		t.Fatalf("Exemplar = (%d, %d, %v), want (11, 40000000, true)", id, lat, ok)
	}
	if _, _, ok := r.Exemplar("s.vol.missing"); ok {
		t.Fatalf("missing space must report no exemplar")
	}
	exs := g.Exemplars()
	if len(exs) != 3 {
		t.Fatalf("exemplars = %d, want 3 populated buckets", len(exs))
	}
	for i := 1; i < len(exs); i++ {
		if exs[i-1].LeNS >= exs[i].LeNS && exs[i].LeNS != 0 {
			t.Fatalf("exemplars not ascending by bucket: %+v", exs)
		}
	}
}

func TestCriticalPathDescendsMaxChild(t *testing.T) {
	tr := Trace{Spans: []Span{
		{Name: "base_cpu", DurNS: 10},
		{Name: "alloc", DurNS: 0, Detail: "annotation"},
		{Name: "device", DurNS: 90, Children: []Span{
			{Name: "rg0", DurNS: 30},
			{Name: "rg1", DurNS: 60},
		}},
	}}
	path := tr.CriticalPath()
	want := []string{"device", "rg1"}
	if len(path) != len(want) {
		t.Fatalf("critical path len = %d, want %d (%+v)", len(path), len(want), path)
	}
	for i, n := range want {
		if path[i].Name != n {
			t.Fatalf("path[%d] = %q, want %q", i, path[i].Name, n)
		}
	}
}

func TestWriteJSONFiltersAndDeterminism(t *testing.T) {
	mk := func() *Recorder {
		r := NewRecorder(Config{Rate: 1, Capacity: 8, Seed: 5})
		for _, sp := range []string{"s.vol.vb", "s.vol.va"} {
			g := r.Space(sp)
			g.Add(Trace{ID: fnv64(sp) | 1, Space: sp, Kind: "write", Seq: 1, LatNS: 1_000_000,
				Spans: []Span{{Name: "device", DurNS: 1_000_000}}})
			g.Add(Trace{ID: fnv64(sp) | 2, Space: sp, Kind: "read", Seq: 1, LatNS: 50_000_000, Slow: true,
				Spans: []Span{{Name: "device", DurNS: 50_000_000}}})
		}
		return r
	}
	var a, b bytes.Buffer
	if err := mk().WriteJSON(&a, Filter{}); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteJSON(&b, Filter{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("WriteJSON not deterministic")
	}
	if !strings.Contains(a.String(), `"spaces"`) || strings.Index(a.String(), "s.vol.va") > strings.Index(a.String(), "s.vol.vb") {
		t.Fatalf("spaces must be sorted:\n%s", a.String())
	}

	var f bytes.Buffer
	if err := mk().WriteJSON(&f, Filter{Space: "va", MinLatNS: 10_000_000}); err != nil {
		t.Fatal(err)
	}
	out := f.String()
	if strings.Contains(out, "s.vol.vb") {
		t.Fatalf("space filter leaked vb:\n%s", out)
	}
	if strings.Contains(out, `"kind": "write"`) {
		t.Fatalf("min-latency filter kept the fast trace:\n%s", out)
	}
	if !strings.Contains(out, `"kind": "read"`) {
		t.Fatalf("min-latency filter dropped the slow trace:\n%s", out)
	}
}

func TestCollapsedEvents(t *testing.T) {
	r := NewRecorder(Config{Rate: 1, Capacity: 8, Seed: 5})
	g := r.Space("s.vol.va")
	g.Add(Trace{ID: 9, Space: "s.vol.va", Kind: "write", CP: 3, LatNS: 500,
		Spans: []Span{
			{Name: "base_cpu", DurNS: 100},
			{Name: "device", DurNS: 400, Children: []Span{{Name: "rg0", DurNS: 400}}},
		}})
	evs := r.CollapsedEvents()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	e := evs[0]
	if e.Sys != "s.vol.va" || e.Phase != "op.write" || e.Name != "device;rg0" || int64(e.Dur) != 500 || e.CP != 3 {
		t.Fatalf("unexpected collapsed event: %+v", e)
	}
	var buf bytes.Buffer
	if n, err := obs.WriteCollapsed(&buf, evs); err != nil || n == 0 {
		t.Fatalf("WriteCollapsed: n=%d err=%v", n, err)
	}
	if !strings.Contains(buf.String(), "s.vol.va;op.write;device;rg0 500") {
		t.Fatalf("collapsed stack missing:\n%s", buf.String())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	var g *Ring
	if g := r.Space("x"); g != nil {
		t.Fatalf("nil recorder must return nil ring")
	}
	if id, seq, sampled := g.Begin(KindWrite); id != 0 || seq != 0 || sampled {
		t.Fatalf("nil ring Begin must be a no-op")
	}
	if rec, slow := g.Decide(true, 1); rec || slow {
		t.Fatalf("nil ring Decide must be a no-op")
	}
	g.Add(Trace{})
	if g.Traces() != nil || g.Sampled() != 0 {
		t.Fatalf("nil ring accessors must be zero")
	}
	if r.Spaces() != nil || r.TotalSampled() != 0 {
		t.Fatalf("nil recorder accessors must be zero")
	}
	if _, _, ok := r.Exemplar("x"); ok {
		t.Fatalf("nil recorder must report no exemplar")
	}
}

func TestParseTraceIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0)} {
		got, err := ParseTraceID(FormatTraceID(id))
		if err != nil || got != id {
			t.Fatalf("round trip %#x: got %#x err %v", id, got, err)
		}
	}
	if got, err := ParseTraceID("12345"); err != nil || got != 12345 {
		t.Fatalf("decimal parse: got %d err %v", got, err)
	}
	for _, bad := range []string{"", "0", "0x0", "zz", "0xzz", "-3", "1.5"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Fatalf("ParseTraceID(%q) should fail", bad)
		}
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig("rate=8,slow=5ms,cap=64,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Rate: 8, SlowNS: 5_000_000, Capacity: 64, Seed: 42}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	if def, err := ParseConfig("default"); err != nil || def != DefaultConfig() {
		t.Fatalf("default spec: %+v err %v", def, err)
	}
	if rt, err := ParseConfig(cfg.String()); err != nil || rt != cfg {
		t.Fatalf("String round trip: %+v err %v", rt, err)
	}
	for _, bad := range []string{"rate=0", "rate=x", "slow=-1s", "slow=fast", "cap=0", "seed=x", "bogus=1", "rate", "rate=8,rate=4"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Fatalf("ParseConfig(%q) should fail", bad)
		}
	}
}
