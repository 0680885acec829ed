package rule

import (
	"sort"
	"sync"
)

// Keyed is a registry of named values — engines by system, rings by space —
// with get-or-create and name-ordered iteration, so whatever is built on it
// reports deterministically however its entries arrived. The zero value is
// ready to use. Methods are safe for concurrent use and on a nil receiver,
// which reads as empty and creates nothing.
type Keyed[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

// Get returns the value under name.
func (k *Keyed[V]) Get(name string) (v V, ok bool) {
	if k == nil {
		return v, false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok = k.m[name]
	return v, ok
}

// Ensure returns the value under name, creating (and holding) one when none
// is held or when keep, if non-nil, turns the held one down. keep and create
// run under the registry lock and must not call back into it.
func (k *Keyed[V]) Ensure(name string, keep func(V) bool, create func() V) (v V) {
	if k == nil {
		return v
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if v, ok := k.m[name]; ok && (keep == nil || keep(v)) {
		return v
	}
	if k.m == nil {
		k.m = make(map[string]V)
	}
	v = create()
	k.m[name] = v
	return v
}

// Names returns every held name, sorted.
func (k *Keyed[V]) Names() []string {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	names := make([]string, 0, len(k.m))
	for n := range k.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Each calls f on every held entry in name order, with the registry unlocked.
func (k *Keyed[V]) Each(f func(name string, v V)) {
	for _, n := range k.Names() {
		if v, ok := k.Get(n); ok {
			f(n, v)
		}
	}
}

// Sum adds f over every held value.
func (k *Keyed[V]) Sum(f func(V) uint64) (n uint64) {
	k.Each(func(_ string, v V) { n += f(v) })
	return n
}
