package device

import "time"

// DefaultReadErrorPenalty is the extra service time one injected read error
// costs when the wrapper's Penalty is zero: the drive retries, reports the
// sector lost, and RAID reconstructs it from the surviving devices of the
// group — a positioning-dominated detour on every peer.
const DefaultReadErrorPenalty = 12 * time.Millisecond

// FaultyDisk wraps a device model and injects a recoverable media error on
// every Nth read I/O. The error does not lose data — RAID rebuilds the
// sector — but it charges Penalty of extra busy time and is counted in
// DiskStats.ReadErrors, so experiments can see recovery cost in the same
// accounting as regular service time. The schedule is a per-device I/O
// counter, so a given workload hits the same errors at any worker width.
type FaultyDisk struct {
	// Inner is the wrapped device model.
	Inner interface {
		WriteChain(start, n uint64) time.Duration
		Read(n uint64) time.Duration
		Stats() DiskStats
	}
	// Every injects an error on each Every-th read I/O; 0 disables.
	Every uint64
	// Penalty is the extra busy time per error (0 = DefaultReadErrorPenalty).
	Penalty time.Duration

	reads uint64
	errs  uint64
	extra time.Duration
}

// WriteChain forwards to the wrapped device.
func (f *FaultyDisk) WriteChain(start, n uint64) time.Duration {
	return f.Inner.WriteChain(start, n)
}

// Read forwards to the wrapped device, injecting the scheduled errors.
func (f *FaultyDisk) Read(n uint64) time.Duration {
	d := f.Inner.Read(n)
	f.reads++
	if f.Every > 0 && f.reads%f.Every == 0 {
		p := f.Penalty
		if p == 0 {
			p = DefaultReadErrorPenalty
		}
		f.errs++
		f.extra += p
		d += p
	}
	return d
}

// Trim forwards a deallocation when the wrapped device supports it.
func (f *FaultyDisk) Trim(start, n uint64) {
	if t, ok := f.Inner.(interface{ Trim(start, n uint64) }); ok {
		t.Trim(start, n)
	}
}

// Stats returns the wrapped device's accounting plus the injected errors
// and their reconstruction time.
func (f *FaultyDisk) Stats() DiskStats {
	st := f.Inner.Stats()
	st.ReadErrors += f.errs
	st.BusyTime += f.extra
	return st
}
