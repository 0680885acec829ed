module waflfs/benchmark

go 1.22

require waflfs v0.0.0

replace waflfs => ../
