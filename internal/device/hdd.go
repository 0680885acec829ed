package device

import "time"

// HDD is an analytic cost model of a hard drive. A write or read I/O pays a
// positioning cost (seek + rotational latency) once and then a per-block
// sequential transfer cost — which is exactly why long write chains (§2.4)
// matter: a chain of n consecutive blocks costs one position plus n
// transfers, whereas n scattered blocks cost n positions.
type HDD struct {
	// Position is the average positioning time per I/O.
	Position time.Duration
	// TransferPerBlock is the sequential transfer time for one 4KiB block.
	TransferPerBlock time.Duration

	stats DiskStats
}

// DiskStats records the I/O a disk model has served.
type DiskStats struct {
	WriteIOs      uint64
	BlocksWritten uint64
	ReadIOs       uint64
	BlocksRead    uint64
	BusyTime      time.Duration
	// ReadErrors counts read I/Os that hit an injected media error and
	// paid the RAID-reconstruction penalty (FaultyDisk wrapping).
	ReadErrors uint64
}

// DefaultHDD returns a model of a 7.2k-RPM SAS drive: ~8ms average
// positioning, ~150MiB/s sequential transfer (≈26µs per 4KiB block).
func DefaultHDD() *HDD {
	return &HDD{Position: 8 * time.Millisecond, TransferPerBlock: 26 * time.Microsecond}
}

// WriteChain returns the service time for one write I/O of n consecutive
// blocks starting at DBN start, and records it. The model charges average
// positioning per I/O, so start does not affect the cost; it is accepted so
// all device models share one signature.
func (h *HDD) WriteChain(start, n uint64) time.Duration {
	_ = start
	d := h.Position + time.Duration(n)*h.TransferPerBlock
	h.stats.WriteIOs++
	h.stats.BlocksWritten += n
	h.stats.BusyTime += d
	return d
}

// Read returns the service time for one read I/O of n consecutive blocks.
func (h *HDD) Read(n uint64) time.Duration {
	d := h.Position + time.Duration(n)*h.TransferPerBlock
	h.stats.ReadIOs++
	h.stats.BlocksRead += n
	h.stats.BusyTime += d
	return d
}

// Stats returns the drive's lifetime I/O accounting.
func (h *HDD) Stats() DiskStats { return h.stats }
