# Developer entry points. Everything here is plain `go` plus the repo's own
# tools; there are no external dependencies.

SCALE ?= 1.0
# BENCH defaults to the next unused artifact number (BENCH_<max+1>.json) so
# `make bench-artifact` never clobbers a committed baseline by accident.
BENCH ?= $(shell go run ./cmd/benchdiff -print-next)

.PHONY: all build test verify bench benchpick bench-artifact bench-diff bench-host bench-host-compare live slo trace pipeline control

all: build

build:
	go build ./...

test:
	go test ./...

# Tier-1 gate: formatting, build, vet, tests, race detector, obs smoke,
# bench-artifact smoke + benchdiff against the committed baseline.
verify:
	./verify.sh

# Full go-bench figure suite (see bench_test.go).
bench:
	WAFL_BENCH_SCALE=$(SCALE) go test -bench . -benchtime 1x -run '^$$'

# Allocator pick-path microbenchmark: striped vs shared, modeled contention.
# Exits nonzero if the striped arm is not faster at 8 workers.
benchpick:
	go run ./cmd/waflbench -exp allocbench -scale $(SCALE)

# Regenerate the benchmark artifact (every experiment's headline rows and the
# audit's) at full scale into the next unused BENCH_<n>.json and gate it
# against the newest previously committed one.
bench-artifact:
	go run ./cmd/waflbench -bench-json $(BENCH) -scale $(SCALE)
	go run ./cmd/benchdiff -dir . $(BENCH)

# Compare a fresh full-scale artifact against the committed baseline without
# overwriting it.
bench-diff:
	go run ./cmd/waflbench -bench-json /tmp/BENCH_new.json -scale $(SCALE)
	go run ./cmd/benchdiff -dir . /tmp/BENCH_new.json

# Host-clock before/after pair (benchmark/README.md): run bench-host once per
# side, each in a checkout of the commit it measures, then compare the two
# results files. Five runs per workload give -compare a run-to-run spread.
# The benchmark runs with benchmark/ as its working directory, so -out and a
# relative A or B are resolved from there; give the other checkout's file by
# absolute path.
#   make bench-host LABEL=parent        (in a checkout of the parent commit)
#   make bench-host LABEL=change
#   make bench-host-compare A=/path/to/parent/benchmark/out/parent/results.json B=out/change/results.json
LABEL ?= host
bench-host:
	sh benchmark/run.sh -repeat 5 -out out/$(LABEL)

bench-host-compare:
	sh benchmark/run.sh -compare $(A) $(B)

# Pipelined-CP gate both ways: the overlap benchmark must clear its 1.3x
# floor with byte-identical final states (and fire no SLO alert), and a
# crash in the overlap window must page the recovery SLI while recovering
# without silent divergence. The audit that follows every run with shared
# sinks holds the SLO side.
pipeline:
	go run ./cmd/waflbench -exp pipelinebench -scale $(SCALE) -slo default
	go run ./cmd/waflbench -exp pipelinecrash -scale 0.1 -slo default

# Run a quarter-scale fig9 with the live introspection endpoints up and hold
# them for half an hour — point cmd/wafltop (or a browser) at the address.
# The SLO engine is armed, so /debug/slo serves the live portfolio and the
# wafltop SLO panel populates.
live:
	go run ./cmd/waflbench -exp fig9 -scale 0.25 \
	    -metrics-addr 127.0.0.1:9190 -slo default -hold 30m

# Like `live`, but with request-scoped op tracing armed at a dense sampling
# rate: /debug/optrace serves the span trees (filter with ?vol= ?min_lat=
# ?id= ?limit=), wafltop shows the slowest-ops panel, and the sampled ops'
# critical paths fold into trace.folded for flamegraph.pl before the hold.
trace:
	go run ./cmd/waflbench -exp fig9 -scale 0.25 \
	    -metrics-addr 127.0.0.1:9190 -slo default -optrace rate=2 \
	    -trace-collapse trace.folded -hold 30m

# SLO gate both ways, through the audit: a clean figure run must fire no
# alert, and the crash matrix (always at small scale — it sweeps every
# phase × fault) must page the recovery SLI.
slo:
	go run ./cmd/waflbench -exp fig9 -scale $(SCALE) -slo default
	go run ./cmd/waflbench -exp crashmatrix -scale 0.1 -slo default

# Closed-loop controller gate both ways, through the audit: on a clean figure
# run the stock portfolio must keep its hands off every knob (do no harm),
# and across the crash matrix the recovery page must kick at least one scrub
# (do some good).
control:
	go run ./cmd/waflbench -exp fig9 -scale $(SCALE) -control default
	go run ./cmd/waflbench -exp crashmatrix -scale 0.1 -control default
