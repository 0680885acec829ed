package device

import "time"

// SSD couples the FTL simulation with a timing model. Host writes cost the
// flash program time; pages the FTL's garbage collection relocates as a
// consequence cost an additional read + program each, which is how write
// amplification turns into latency and lost throughput (§3.2.2, §4.3).
type SSD struct {
	FTL Translator
	// CommandOverhead is the fixed per-I/O cost (interface + firmware).
	CommandOverhead time.Duration
	// ProgramPerBlock is the NAND program time per 4KiB page.
	ProgramPerBlock time.Duration
	// ReadPerBlock is the NAND read time per 4KiB page.
	ReadPerBlock time.Duration

	stats DiskStats
}

// Mapping selects the FTL model an SSD uses.
type Mapping int

const (
	// MappingHybrid is the log-plus-merge hybrid FTL (HybridFTL), the
	// default: it exhibits the erase-block merge economics §3.2.2 relies
	// on, and matches the write-amplification behaviour the paper measures.
	MappingHybrid Mapping = iota
	// MappingPage is the fully page-mapped FTL with greedy GC.
	MappingPage
)

// SSDConfig configures an SSD model.
type SSDConfig struct {
	FTL             FTLConfig
	Mapping         Mapping
	CommandOverhead time.Duration
	ProgramPerBlock time.Duration
	ReadPerBlock    time.Duration
}

// DefaultSSDConfig returns a model of an enterprise SATA/SAS SSD with the
// given logical capacity in 4KiB blocks: 2MiB erase blocks, 10%
// overprovisioning, ~100µs program and ~60µs read per page, 20µs command
// overhead.
func DefaultSSDConfig(logicalBlocks uint64) SSDConfig {
	return SSDConfig{
		FTL: FTLConfig{
			LogicalBlocks:      logicalBlocks,
			PagesPerEraseBlock: 512,
			Overprovision:      0.10,
		},
		CommandOverhead: 20 * time.Microsecond,
		ProgramPerBlock: 100 * time.Microsecond,
		ReadPerBlock:    60 * time.Microsecond,
	}
}

// NewSSD builds an SSD from cfg.
func NewSSD(cfg SSDConfig) *SSD {
	var tr Translator
	switch cfg.Mapping {
	case MappingPage:
		tr = NewFTL(cfg.FTL)
	default:
		tr = NewHybridFTL(HybridFTLConfig{
			LogicalBlocks:      cfg.FTL.LogicalBlocks,
			PagesPerEraseBlock: cfg.FTL.PagesPerEraseBlock,
			Overprovision:      cfg.FTL.Overprovision,
		})
	}
	return &SSD{
		FTL:             tr,
		CommandOverhead: cfg.CommandOverhead,
		ProgramPerBlock: cfg.ProgramPerBlock,
		ReadPerBlock:    cfg.ReadPerBlock,
	}
}

// WriteChain writes n consecutive logical blocks starting at start and
// returns the service time, including any garbage-collection work the
// writes triggered inside the drive.
func (s *SSD) WriteChain(start, n uint64) time.Duration {
	relocated := s.FTL.WriteRange(start, n)
	d := s.CommandOverhead +
		time.Duration(n)*s.ProgramPerBlock +
		time.Duration(relocated)*(s.ReadPerBlock+s.ProgramPerBlock)
	s.stats.WriteIOs++
	s.stats.BlocksWritten += n
	s.stats.BusyTime += d
	return d
}

// Read returns the service time for one read I/O of n blocks.
func (s *SSD) Read(n uint64) time.Duration {
	d := s.CommandOverhead + time.Duration(n)*s.ReadPerBlock
	s.stats.ReadIOs++
	s.stats.BlocksRead += n
	s.stats.BusyTime += d
	return d
}

// Trim forwards a deallocation for n blocks starting at start to the FTL.
func (s *SSD) Trim(start, n uint64) {
	for lpn := start; lpn < start+n; lpn++ {
		s.FTL.Trim(lpn)
	}
}

// WriteAmplification reports the drive's current write amplification.
func (s *SSD) WriteAmplification() float64 { return s.FTL.WriteAmplification() }

// Stats returns the drive's lifetime I/O accounting.
func (s *SSD) Stats() DiskStats { return s.stats }
