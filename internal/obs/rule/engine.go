package rule

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"waflfs/internal/obs/tsdb"
)

// State is an instance's level on its kind's three-rung ladder, 0 the calm
// one. N names the rungs, so status documents read "page" instead of 2.
type State[N interface{ Names() [3]string }] int

func (s State[N]) String() string {
	var n N
	if names := n.Names(); s > 0 && int(s) < len(names) {
		return names[s]
	}
	return "ok"
}

// MarshalJSON renders the state as its name.
func (s State[N]) MarshalJSON() ([]byte, error) { return []byte(strconv.Quote(s.String())), nil }

// ExemplarSource resolves a space name ("<sys>.vol.<name>") to a
// representative trace: ID and modeled latency of the space's current
// worst-bucket sampled op. optrace's Recorder implements it, so a transition
// or an actuation record links straight to a trace in /debug/optrace.
type ExemplarSource interface {
	Exemplar(space string) (id, latNS uint64, ok bool)
}

// Transition is one state-machine edge of one instance, stamped with the
// modeled clock. The exemplar fields are set only by kinds that link their
// transitions to a trace, and only when a source is wired; 0 otherwise.
type Transition[S any] struct {
	CP            uint64        `json:"cp"`
	At            time.Duration `json:"at_ns"`
	Instance      string        `json:"instance"`
	From          S             `json:"from"`
	To            S             `json:"to"`
	ExemplarTrace uint64        `json:"exemplar_trace,omitempty"`
	ExemplarLatNS uint64        `json:"exemplar_lat_ns,omitempty"`
}

// LogCap bounds every per-engine log.
const LogCap = 128

// Ring is a bounded history, oldest first: once full, Push overwrites the
// oldest entry and counts it dropped. The zero value holds LogCap entries,
// allocated on the first Push; MakeRing sizes one explicitly. Not
// synchronized: it lives under its owner's lock.
type Ring[T any] struct {
	buf     []T // cap is the bound
	head    int // index of the oldest entry once full
	Dropped uint64
}

// MakeRing returns a ring bounded at n entries.
func MakeRing[T any](n int) Ring[T] { return Ring[T]{buf: make([]T, 0, n)} }

// Push appends v and returns the slot it landed in, valid until the next
// Push.
func (r *Ring[T]) Push(v T) *T {
	if r.buf == nil {
		r.buf = make([]T, 0, LogCap)
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return &r.buf[len(r.buf)-1]
	}
	slot := &r.buf[r.head]
	*slot = v
	r.head = (r.head + 1) % len(r.buf)
	r.Dropped++
	return slot
}

// Snapshot returns a copy of the surviving entries, oldest first; nil when
// empty, so an omitempty field stays out of a status document.
func (r *Ring[T]) Snapshot() []T {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Inst is the part of a rule instance the scaffold owns: its identity and its
// place in the kind's hysteresis. A kind's instance type embeds it.
type Inst[S any] struct {
	Name  string // rule name, plus ".<captures>" when the rule fans out
	Space string // "vol.<name>"-style exemplar key; "" for none

	State   S
	SinceCP uint64
	// Streak counts consecutive evaluations pressing for a higher state and
	// Calm those pressing for a lower one; what either count triggers is the
	// kind's own hysteresis.
	Streak, Calm int
}

// Base gives the scaffold access to an embedding instance.
func (in *Inst[S]) Base() *Inst[S] { return in }

// Instance is a kind's instance type: a pointer to a struct embedding Inst.
type Instance[S any] interface{ Base() *Inst[S] }

// Core is what every rule engine shares: one system's binding to its store,
// the live instances, the counters and the transition log. A kind's engine
// embeds it; Mu guards the embedding engine's state too. The methods that
// read or move that state expect Mu held; Read and SetExemplarSource take it
// and are nil-safe, for the kind's exported accessors.
type Core[S comparable, I Instance[S]] struct {
	Mu    sync.Mutex
	Sys   string
	Store *tsdb.Store
	Insts []I // sorted by name

	Evals, Trans uint64
	translog     Ring[Transition[S]]
	seen         int // Store.NumSeries() at the last Adopt
	exem         ExemplarSource
}

// Init binds the engine to its system and store.
func (c *Core[S, I]) Init(sys string, store *tsdb.Store) {
	c.Sys, c.Store = sys, store
	c.seen = -1 // stale until the first Adopt
}

// Stale reports whether the store has gained series since the last Adopt, so
// wildcard rules may match more than the live instances cover. Series are
// only ever added.
func (c *Core[S, I]) Stale() bool { return c.Store.NumSeries() != c.seen }

// Adopt makes a fresh expansion the live instance list, in name order; an
// instance whose name was live before keeps its state.
func (c *Core[S, I]) Adopt(fresh []I) {
	old := make(map[string]*Inst[S], len(c.Insts))
	for _, in := range c.Insts {
		old[in.Base().Name] = in.Base()
	}
	for _, in := range fresh {
		b := in.Base()
		if p, ok := old[b.Name]; ok {
			b.State, b.SinceCP, b.Streak, b.Calm = p.State, p.SinceCP, p.Streak, p.Calm
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Base().Name < fresh[j].Base().Name })
	c.Insts = fresh
	c.seen = c.Store.NumSeries()
}

// Transit moves an instance to a new state and logs the edge. The returned
// entry stays valid until the next Transit, for the kind to attach an
// exemplar.
func (c *Core[S, I]) Transit(in I, cp uint64, at time.Duration, to S) *Transition[S] {
	b := in.Base()
	tr := c.translog.Push(Transition[S]{CP: cp, At: at, Instance: b.Name, From: b.State, To: to})
	c.Trans++
	b.State, b.SinceCP = to, cp
	return tr
}

// TransitionLog returns a copy of the transition log.
func (c *Core[S, I]) TransitionLog() []Transition[S] { return c.translog.Snapshot() }

// CountAt counts the instances currently in state s.
func (c *Core[S, I]) CountAt(s S) (n int) {
	for _, in := range c.Insts {
		if in.Base().State == s {
			n++
		}
	}
	return n
}

// Exemplar returns the representative trace of an instance's space, zeros
// when no source is wired, the instance has no space, or the space has no
// sampled trace.
func (c *Core[S, I]) Exemplar(space string) (id, latNS uint64) {
	if c.exem == nil || space == "" {
		return 0, 0
	}
	if id, latNS, ok := c.exem.Exemplar(c.Sys + "." + space); ok {
		return id, latNS
	}
	return 0, 0
}

// SetExemplarSource wires a trace exemplar source.
func (c *Core[S, I]) SetExemplarSource(src ExemplarSource) {
	if c == nil {
		return
	}
	c.Mu.Lock()
	c.exem = src
	c.Mu.Unlock()
}

// Read returns f() under the engine lock, 0 on a nil engine — the body of a
// counter accessor.
func (c *Core[S, I]) Read(f func() uint64) uint64 {
	if c == nil {
		return 0
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return f()
}
