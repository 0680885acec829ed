package obs

import (
	"errors"
	"testing"
)

// Registering a name under a different instrument kind must surface, at the
// registration site, an error wrapping ErrKindMismatch — whichever kind came
// first, read-through variants included — while the same name under the same
// kind fetches the existing instrument.
func TestKindMismatchIsReturnedError(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(2)
	if again := r.Counter("x"); again != c || again.Value() != 2 {
		t.Fatalf("Counter re-registration: got %p (value %d), want the original %p", again, again.Value(), c)
	}
	r.CounterFunc("fn", func() uint64 { return 1 })

	// registrationErr runs reg and returns the error its panic carries.
	registrationErr := func(reg func()) (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err, _ = rec.(error)
				if err == nil {
					t.Fatalf("panic value = %v, want an error", rec)
				}
			}
		}()
		reg()
		return nil
	}
	for _, tc := range []struct {
		name string
		reg  func()
	}{
		{"gauge on counter", func() { r.Gauge("x") }},
		{"histogram on counter", func() { r.Histogram("x", DurationBuckets) }},
		{"gauge on counter func", func() { r.GaugeFunc("fn", func() int64 { return 0 }) }},
	} {
		if err := registrationErr(tc.reg); !errors.Is(err, ErrKindMismatch) {
			t.Errorf("%s: err = %v, want ErrKindMismatch", tc.name, err)
		}
	}
}

func TestKindMismatchPanicCarriesError(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("Gauge on a counter name did not panic")
		}
		err, ok := rec.(error)
		if !ok || !errors.Is(err, ErrKindMismatch) {
			t.Fatalf("panic value = %v, want an error wrapping ErrKindMismatch", rec)
		}
	}()
	r.Gauge("x")
}
