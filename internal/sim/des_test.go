package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"waflfs/internal/stats"
)

// Discrete-event simulation of the same closed queueing network Solve
// analyzes, kept here as the MVA's reference oracle. Where MVA yields exact
// mean values for the product-form model, the DES draws exponential service
// and think times and measures the full response-time distribution. The two
// agree on means (see TestDESMatchesMVA), which cross-validates both
// implementations.

// DESConfig configures one simulation run.
type DESConfig struct {
	// Centers visited by every operation, in order. Delay centers never
	// queue; queueing centers are FCFS single servers.
	Centers []Center
	// Think is the mean client think time (exponential).
	Think time.Duration
	// Clients is the closed population.
	Clients int
	// Ops ends the run after this many completed operations (after warm-up).
	Ops int
	// Warmup operations are discarded before measurement starts.
	Warmup int
	// Seed drives all randomness.
	Seed int64
}

// DESResult summarizes a run.
type DESResult struct {
	Throughput  float64 // completed ops per second of simulated time
	MeanLatency time.Duration
	P50, P95    time.Duration
	Completed   int
}

type desEvent struct {
	at     float64 // simulated seconds
	client int
	stage  int // index of the center the client is arriving at; len = think done
	seq    uint64
}

type desEventQueue []desEvent

func (q desEventQueue) Len() int { return len(q) }
func (q desEventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q desEventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *desEventQueue) Push(x interface{}) { *q = append(*q, x.(desEvent)) }
func (q *desEventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Simulate runs the closed-loop discrete-event model.
func Simulate(cfg DESConfig) DESResult {
	if cfg.Clients <= 0 || cfg.Ops <= 0 {
		panic(fmt.Sprintf("sim: DES needs clients (%d) and ops (%d)", cfg.Clients, cfg.Ops))
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = cfg.Ops / 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := len(cfg.Centers)
	demand := make([]float64, k)
	for i, c := range cfg.Centers {
		demand[i] = c.Demand.Seconds()
	}
	think := cfg.Think.Seconds()

	// Per-center FCFS state: the time its single server frees up.
	serverFree := make([]float64, k)
	opStart := make([]float64, cfg.Clients)

	q := &desEventQueue{}
	var seq uint64
	push := func(at float64, client, stage int) {
		seq++
		heap.Push(q, desEvent{at: at, client: client, stage: stage, seq: seq})
	}
	exp := func(mean float64) float64 {
		if mean <= 0 {
			return 0
		}
		return rng.ExpFloat64() * mean
	}

	// All clients start thinking at time zero.
	for c := 0; c < cfg.Clients; c++ {
		push(exp(think), c, 0)
	}

	var (
		now       float64
		completed int
		measured  int
		latSum    float64
		lats      []float64
		measStart float64
	)
	target := cfg.Warmup + cfg.Ops
	for completed < target && q.Len() > 0 {
		e := heap.Pop(q).(desEvent)
		now = e.at
		if e.stage == 0 {
			opStart[e.client] = now
		}
		if e.stage == k {
			// Operation complete.
			completed++
			if completed == cfg.Warmup {
				measStart = now
			}
			if completed > cfg.Warmup {
				measured++
				l := now - opStart[e.client]
				latSum += l
				lats = append(lats, l)
			}
			push(now+exp(think), e.client, 0)
			continue
		}
		// Arrive at center e.stage.
		if cfg.Centers[e.stage].Delay {
			push(now+exp(demand[e.stage]), e.client, e.stage+1)
			continue
		}
		start := now
		if serverFree[e.stage] > start {
			start = serverFree[e.stage]
		}
		done := start + exp(demand[e.stage])
		serverFree[e.stage] = done
		push(done, e.client, e.stage+1)
	}

	res := DESResult{Completed: measured}
	if measured == 0 {
		return res
	}
	elapsed := now - measStart
	if elapsed > 0 {
		res.Throughput = float64(measured) / elapsed
	}
	res.MeanLatency = time.Duration(latSum / float64(measured) * float64(time.Second))
	// One Summarize sorts the latencies once for every quantile we serve,
	// instead of the old per-percentile copy-and-sort.
	sum := stats.Summarize(lats)
	res.P50 = desSeconds(sum.Percentile(50))
	res.P95 = desSeconds(sum.Percentile(95))
	return res
}

func desSeconds(secs float64) time.Duration {
	return time.Duration(secs * float64(time.Second))
}

func TestDESSingleClientMatchesDemands(t *testing.T) {
	centers := []Center{
		{Name: "cpu", Demand: 100 * time.Microsecond},
		{Name: "disk", Demand: 400 * time.Microsecond},
	}
	r := Simulate(DESConfig{Centers: centers, Think: time.Millisecond, Clients: 1, Ops: 50000, Seed: 1})
	// One client never queues: mean latency = sum of mean demands (500µs),
	// within sampling error of the exponential draws.
	want := 500 * time.Microsecond
	if ratio := float64(r.MeanLatency) / float64(want); ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("mean latency = %v, want ~%v", r.MeanLatency, want)
	}
	if r.Completed != 50000 {
		t.Fatalf("completed = %d", r.Completed)
	}
}

// The DES and the exact MVA describe the same product-form network, so
// their means must agree across load levels.
func TestDESMatchesMVA(t *testing.T) {
	centers := []Center{
		{Name: "cpu", Demand: 80 * time.Microsecond},
		{Name: "d0", Demand: 250 * time.Microsecond},
		{Name: "d1", Demand: 200 * time.Microsecond},
	}
	think := 2 * time.Millisecond
	for _, n := range []int{1, 4, 16, 64} {
		mva := Solve(centers, think, n)
		des := Simulate(DESConfig{Centers: centers, Think: think, Clients: n, Ops: 60000, Seed: int64(n)})
		xRatio := des.Throughput / mva.Throughput
		if xRatio < 0.93 || xRatio > 1.07 {
			t.Fatalf("N=%d: DES throughput %.0f vs MVA %.0f (ratio %.3f)",
				n, des.Throughput, mva.Throughput, xRatio)
		}
		lRatio := float64(des.MeanLatency) / float64(mva.Latency)
		if lRatio < 0.90 || lRatio > 1.10 {
			t.Fatalf("N=%d: DES latency %v vs MVA %v (ratio %.3f)",
				n, des.MeanLatency, mva.Latency, lRatio)
		}
	}
}

func TestDESPercentilesOrdered(t *testing.T) {
	centers := []Center{{Name: "d", Demand: 300 * time.Microsecond}}
	r := Simulate(DESConfig{Centers: centers, Think: time.Millisecond, Clients: 16, Ops: 40000, Seed: 7})
	if !(r.P50 <= r.P95) {
		t.Fatalf("P50 %v > P95 %v", r.P50, r.P95)
	}
	if r.P50 > r.MeanLatency*3 || r.P95 < r.MeanLatency/3 {
		t.Fatalf("implausible percentiles: mean %v p50 %v p95 %v", r.MeanLatency, r.P50, r.P95)
	}
	// Under load, the exponential tail makes P95 clearly exceed the mean.
	if float64(r.P95) < 1.2*float64(r.MeanLatency) {
		t.Fatalf("P95 %v not in the tail of mean %v", r.P95, r.MeanLatency)
	}
}

func TestDESDelayCenters(t *testing.T) {
	queueing := Simulate(DESConfig{
		Centers: []Center{{Name: "q", Demand: 500 * time.Microsecond}},
		Think:   0, Clients: 32, Ops: 30000, Seed: 3,
	})
	delay := Simulate(DESConfig{
		Centers: []Center{{Name: "d", Demand: 500 * time.Microsecond, Delay: true}},
		Think:   0, Clients: 32, Ops: 30000, Seed: 3,
	})
	if delay.MeanLatency >= queueing.MeanLatency/4 {
		t.Fatalf("delay center latency %v vs queueing %v — no queueing contrast",
			delay.MeanLatency, queueing.MeanLatency)
	}
}

func TestDESDeterministic(t *testing.T) {
	cfg := DESConfig{
		Centers: []Center{{Name: "c", Demand: time.Millisecond}},
		Think:   time.Millisecond, Clients: 8, Ops: 5000, Seed: 42,
	}
	a, b := Simulate(cfg), Simulate(cfg)
	if a.MeanLatency != b.MeanLatency || a.Throughput != b.Throughput {
		t.Fatal("same seed produced different results")
	}
	cfg.Seed = 43
	c := Simulate(cfg)
	if math.Abs(float64(a.MeanLatency-c.MeanLatency)) == 0 {
		t.Log("different seeds coincidentally equal (unlikely but not fatal)")
	}
}

func TestDESPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"no clients": func() { Simulate(DESConfig{Centers: nil, Clients: 0, Ops: 10}) },
		"no ops":     func() { Simulate(DESConfig{Centers: nil, Clients: 1, Ops: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkDES(b *testing.B) {
	centers := []Center{
		{Name: "cpu", Demand: 80 * time.Microsecond},
		{Name: "d0", Demand: 250 * time.Microsecond},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(DESConfig{Centers: centers, Think: time.Millisecond, Clients: 32, Ops: 10000, Seed: int64(i)})
	}
}
