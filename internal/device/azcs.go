package device

import "waflfs/internal/block"

// AZCS (advanced zone checksums) is the layout ONTAP uses when a device's
// sector size aligns exactly to 4KiB and per-block checksums cannot ride in
// 520-byte sectors: 63 consecutive data blocks use the 64th block as their
// shared checksum block (§3.2.4).
//
// The performance question the paper raises is whether checksum blocks are
// written as part of the sequential stream (the chain covers the whole
// region through its checksum block) or as separate random writes (the
// chain ends mid-region, so the corresponding checksum block must be
// updated with a nonsequential I/O — very harmful on SMR drives).

// DataToDiskDBN converts a data-block index (counting only data blocks) to
// its on-disk DBN in an AZCS layout, skipping over the interleaved checksum
// blocks.
func DataToDiskDBN(dataIdx uint64) uint64 {
	return dataIdx/block.AZCSRegionDataBlocks*block.AZCSRegionBlocks +
		dataIdx%block.AZCSRegionDataBlocks
}

// AZCSUsableFraction is the fraction of raw capacity available for data
// under AZCS: 63 of every 64 blocks.
const AZCSUsableFraction = float64(block.AZCSRegionDataBlocks) / float64(block.AZCSRegionBlocks)
