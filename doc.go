// Package waflfs is a faithful, self-contained reproduction of the system
// described in "Efficient Search for Free Blocks in the WAFL File System"
// (Kesavan, Curtis-Maury, Bhattacharjee — ICPP 2018).
//
// The library implements the paper's primary contribution — allocation
// areas (AAs), the RAID-aware max-heap AA cache, the novel histogram-based
// partial sort (HBPS) used as the RAID-agnostic AA cache, media-aware AA
// sizing for HDD/SSD/SMR, and the persistent TopAA metafile — together with
// every substrate the evaluation depends on: bitmap metafiles, RAID
// geometry with tetris/stripe accounting, HDD/SSD/SMR device models
// (including page-mapped and hybrid FTL simulations with write-amplification
// accounting and AZCS checksum layout), a consistency-point engine, a
// copy-on-write dual-VBN write allocator over an aggregate hosting FlexVol
// volumes, segment cleaning, workload generators, and a closed-loop MVA
// queueing model that converts measured service demands into the
// latency-versus-throughput curves the paper plots.
//
// This root package re-exports the library's primary API; the
// implementation lives in the internal packages, one per subsystem. The
// Examples walk through the paper's mechanisms and go test checks what they
// print; cmd/waflbench regenerates every evaluation figure of the paper.
//
// # Quick start
//
//	specs := []waflfs.GroupSpec{{
//		DataDevices: 6, ParityDevices: 1,
//		BlocksPerDevice: 1 << 18, Media: waflfs.MediaSSD,
//	}}
//	vols := []waflfs.VolSpec{{Name: "vol0", Blocks: 1 << 20}}
//	sys := waflfs.NewSystem(specs, vols, waflfs.DefaultTunables(), 42)
//	lun := sys.Agg.Vols()[0].CreateLUN("lun0", 100000)
//	sys.Write(lun, 0, 8)   // buffer a client write
//	sys.CP()               // commit a consistency point
package waflfs
