#!/bin/sh
# Tier-1 verification: formatting, build, full test suite, the race detector
# over every parallel path (CP flush fan-out, experiment arms, mount walks),
# and an end-to-end observability smoke test of the bench binary.
# The race run uses -short to skip the slowest experiment reproductions;
# every concurrency-bearing code path still executes under the detector.
set -eux

fmt=$(gofmt -l cmd internal examples ./*.go)
if [ -n "$fmt" ]; then
    echo "gofmt needed on: $fmt" >&2
    exit 1
fi

# Structural gate, one pick path (DESIGN.md §9): the allocator reports through
# the pick observer in internal/wafl/obs.go, so group.go and agnostic.go must
# not import the op tracer or the pick-provenance ring, and neither the second
# pick bodies nor the two wrappers they ran over may come back. CHANGES.md,
# ROADMAP.md and the per-PR ISSUE.md tell the history and are exempt;
# benchmark/ is read-only to non-benchmark PRs.
if grep -n 'waflfs/internal/obs/optrace\|waflfs/internal/obs/picks' internal/wafl/group.go internal/wafl/agnostic.go; then
    echo "internal/wafl/group.go and agnostic.go must not import obs/optrace or obs/picks" >&2
    exit 1
fi
# Structural gate, every per-CP stream is bounded (DESIGN.md §6): the CP
# event tracer and the per-CP CSV recorder held everything until exit and had
# no reader, so neither they, their JSON Lines writer and event type, nor the
# waflbench flags that armed them may come back. (cmd/agesim's -csv-out is
# fragscan's own report and stays.)
if grep -rn -e 'SysTracer' -e 'NewTracer' -e 'CSVRecorder' -e 'WriteJSONL' -e 'obs\.Event' \
    -e '"trace-out"' cmd internal examples || grep -rn '"csv-out"' cmd/waflbench; then
    echo "the CP event tracer or the per-CP CSV recorder is back (see the matches above)" >&2
    exit 1
fi
if grep -rn -e 'pickAASharded' -e 'pickSharded' -e 'heapcache\.Sharded' -e 'hbps\.Sharded' \
    cmd internal examples ./*.go ./*.md Makefile \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md; then
    echo "the second pick path is back (see the matches above)" >&2
    exit 1
fi

# Structural gate, one rule pipeline (DESIGN.md §15): the clause grammar, the
# name alphabets and the portfolio Set live once, in internal/obs/rule. The
# four spec parsers are a per-key switch over rule.Fields, so neither a
# private name check nor a hand-rolled ','/'=' splitting loop may come back
# under them, and no package under internal/ may grow a Set type of its own.
rulekinds="internal/obs/slo internal/control internal/obs/optrace internal/faultinject"
# shellcheck disable=SC2086
if grep -rn --include='*.go' -e 'func validName' -e 'func validPattern' \
    -e 'strings\.Cut(.*"=")' -e 'SplitN(.*"=", 2)' -e 'strings\.Split(.*",")' $rulekinds; then
    echo "a spec parser is splitting or name-checking by hand; use internal/obs/rule" >&2
    exit 1
fi
sets=$(grep -rn --include='*.go' -E '^type Set(\[.*\])? struct' internal | wc -l)
if [ "$sets" -ne 1 ]; then
    echo "want exactly one Set type under internal/ (rule.Set), found $sets" >&2
    exit 1
fi

# Structural gate, the paper's structures at host speed (DESIGN.md §16): AA
# ids are small dense integers, so the HBPS position index, the heap's and
# everything the TopAA store and decoders keep per AA are arrays. A map keyed
# by AA id coming back into these packages brings back a hash operation per
# list move and an allocation per mount; the map-indexed reference the
# differential tests compare against lives in a _test.go file and is exempt.
# The same holds for what internal/wafl keeps per AA (delta ledgers, the
# delayed-free queues).
if grep -rn 'map\[aa\.ID\]' internal/hbps internal/heapcache internal/topaa internal/wafl --include='*.go' | grep -v '_test\.go:'; then
    echo "a map keyed by aa.ID is back in hbps, heapcache, topaa or wafl; index a slice by the id" >&2
    exit 1
fi

# Structural gate, order by construction (DESIGN.md §14): dirty LBAs, tetris
# cells, ledger entries and delayed-free AAs come off an ordset.Bits in
# ascending order, so nothing on the CP path comparison-sorts per block or per
# AA. (System.Read's per-op run sort in system.go is another path and stays;
# pipeline.go orders the handful of dirty LUNs with slices.SortFunc.)
if grep -n 'slices\.Sort(\|sort\.' internal/raid/raid.go internal/wafl/ledger.go \
    internal/wafl/pipeline.go internal/wafl/delayedfree.go internal/wafl/agnostic.go; then
    echo "a per-block or per-AA sort is back on the CP path; drain an ordset.Bits instead" >&2
    exit 1
fi

# Structural gate, the active image's reference is implicit (DESIGN.md §14):
# an overwrite frees the old pair or moves it into the newest snapshot's
# delta, through dropActive in snapshot.go; the count table is touched only
# for pairs a restore stored twice. The per-block loop of the alloc stage
# must not find its own way into the table.
if grep -n 'refNew\|\.rc\.' internal/wafl/pipeline.go; then
    echo "internal/wafl/pipeline.go reaches into the refcount table; go through dropActive" >&2
    exit 1
fi

# Structural gate, a score delta is a sum (DESIGN.md §9, §14): every space
# keeps one delta ledger per bank, in which present means non-zero. The
# striped allocator keeps no ledgers of its own, and no fold row is emitted
# for an empty bank just to hold a trace shape.
if sed -n '/^type allocState struct/,/^}/p' internal/wafl/allocctx.go | grep -n 'deltaLedger'; then
    echo "allocState holds delta ledgers again; deltas go to the space's one ledger" >&2
    exit 1
fi
if grep -rn -e 'idleFoldRows' -e 'idleRow' -e 'len(.*ledgers) > 0' internal/wafl; then
    echo "per-shard ledgers or idle fold rows are back in internal/wafl" >&2
    exit 1
fi

# Structural gate, fragscan at word speed (DESIGN.md §6, §14): the free-run
# histogram comes off bitmap words through bitmap.FreeRunHist, so the analyzer
# makes no callback and no bucket search per run; the package's one run walker
# reads words itself instead of ping-ponging between NextFree and NextUsed; a
# registry snapshot reads a name-ordered slice; and tsdb's Sample looks its
# series up through cached handles instead of building their names. The
# per-run loop, the per-bit stripe loop and the name-building Sample survive
# in _test.go files, as the references the differential tests compare against.
body() { # body <file> <func header regexp>: the function's text, header to closing brace
    sed -n "/^func $2/,/^}/p" "$1"
}
if grep -n 'sort\.Search(\|ForEachFreeRun(' internal/obs/fragscan/*.go | grep -v '_test\.go:'; then
    echo "fragscan is walking free runs one at a time again; use bitmap.FreeRunHist" >&2
    exit 1
fi
if body internal/bitmap/bitmap.go '(b \*Bitmap) ForEachFreeRun(' | grep -n 'NextFree(\|NextUsed('; then
    echo "ForEachFreeRun is back on NextFree/NextUsed; walk the words" >&2
    exit 1
fi
if body internal/obs/registry.go '(r \*Registry) snapshot(' | grep -n 'sort\.'; then
    echo "Registry.snapshot sorts per call; keep Registry.ordered in order instead" >&2
    exit 1
fi
if body internal/obs/tsdb/tsdb.go '(s \*Store) Sample(' | grep -n '" *+\|+ *"'; then
    echo "tsdb.Store.Sample builds a series name per call; resolve it once into Store.sampled" >&2
    exit 1
fi
# Structural gate, the mount path at word speed (DESIGN.md §16): a striped AA
# scores in one strided count, and a scoring walk charges the whole space
# once, so aa.Score has no charging mode; TopK selects and sorts packed keys,
# so the candidate heap it replaced does not come back beside it.
if grep -n 'charge bool\|func countFree' internal/aa/aa.go; then
    echo "aa.Score has a charging path again; charge the space once (ChargeScan)" >&2
    exit 1
fi
if grep -n 'cands\|candUp\|candDown' internal/heapcache/heapcache.go; then
    echo "heapcache's TopK candidate heap is back; AppendTopK selects over packed keys" >&2
    exit 1
fi
# Structural gate, snapshots that cost what they diverge (DESIGN.md §14): a
# snapshot keeps a delta of the pointers the next newer image dropped, so it
# holds no full image copy, the bit-sliced per-LBA counter of the copies is
# gone, and creating one touches no LBA.
if sed -n '/^type Snapshot struct/,/^}/p' internal/wafl/snapshot.go | grep -n 'blocks'; then
    echo "Snapshot holds a full image again; keep a delta (snapDelta)" >&2
    exit 1
fi
if grep -rn 'type sliced' internal/wafl; then
    echo "the sliced per-LBA snapshot counter is back" >&2
    exit 1
fi
if body internal/wafl/snapshot.go '(s \*System) CreateSnapshot(' | grep -n 'range l\.blocks'; then
    echo "CreateSnapshot walks the LUN; it should append an empty delta" >&2
    exit 1
fi
# Structural gate, devices do not observe (DESIGN.md §17): the device models
# keep their own DiskStats and nothing switches a per-I/O histogram on, so the
# package stays clear of the observability layer.
if go list -deps ./internal/device | grep 'waflfs/internal/obs'; then
    echo "internal/device must not import waflfs/internal/obs" >&2
    exit 1
fi

# Structural gate, one driver and one audit (DESIGN.md §17): the experiment
# registry is the only driver, each experiment owns its rows and its gate, and
# one audit holds the shared sinks to the clean-versus-crash contract after
# every waflbench run. The hand-run artifact suite, the two exit-code flags
# that held a copy of the contract, the split legacy-sum rows, and the
# fragscan and modeled-clock row families nothing read must not come back.
if grep -rn -e 'CollectArtifact' -e 'slo-expect' -e 'control-expect' -e 'alloc_checks' \
    -e 'pipeline_checks' -e 'pages_crash_pipeline' -e '"frag\.' -e '"clock\.' cmd internal/experiments; then
    echo "a second artifact driver, an -expect flag, a legacy-sum split or a frag./clock. row is back" >&2
    exit 1
fi

# The gates above must have had something to read.
test -n "$(body internal/bitmap/bitmap.go '(b \*Bitmap) ForEachFreeRun(')"
test -n "$(body internal/obs/registry.go '(r \*Registry) snapshot(')"
test -n "$(body internal/obs/tsdb/tsdb.go '(s \*Store) Sample(')"
test -n "$(body internal/wafl/snapshot.go '(s \*System) CreateSnapshot(')"
test -n "$(sed -n '/^type Snapshot struct/,/^}/p' internal/wafl/snapshot.go)"
test -n "$(sed -n '/^type allocState struct/,/^}/p' internal/wafl/allocctx.go)"

go build ./...
go vet ./...
go test ./...
go test -race -short ./...
# The two-clock benchmark harness is its own module (benchmark/go.mod) and
# does not ride the commands above; vet and test it here so an internal
# rename that breaks it fails tier-1 instead of the benchmark run.
(cd benchmark && go vet ./... && go test ./...)

# Fuzz smoke: a few seconds per TopAA decoder, enough to execute the seed
# corpus plus fresh mutations under the fuzzer's instrumentation.
go test -run '^$' -fuzz '^FuzzLoadRAIDAware$' -fuzztime 5s ./internal/topaa
go test -run '^$' -fuzz '^FuzzLoadAgnostic$' -fuzztime 5s ./internal/topaa
# Staging-queue op-sequence fuzzer: random stage/pop/update/flush/restage
# interleavings over a heap and over an HBPS must never hold an AA twice,
# leave a held heap entry tracked, or lose an HBPS-tracked AA.
go test -run '^$' -fuzz '^FuzzQueueOps$' -fuzztime 5s ./internal/shardq
# HBPS differential fuzzer: a random track/untrack/update/pop/replenish/
# marshal-and-load sequence must leave the array-indexed HBPS and the
# map-indexed reference kept in its test file with the same list, histogram,
# counters and pages after every step.
go test -run '^$' -fuzz '^FuzzHBPSOps$' -fuzztime 5s ./internal/hbps
# Tetris-builder differential fuzzer: for any geometry (one data device, more
# than 64, a ragged last tetris) and a write list in allocator order, shuffled
# or holding a duplicate, the bit-matrix builder and the sort-per-Build one
# kept in the test file return the same tetrises or panic with the same text,
# reused builder included.
go test -run '^$' -fuzz '^FuzzTetrisBuild$' -fuzztime 5s ./internal/raid
# Free-run differential fuzzer: for any bitmap size, fill pattern and range
# (unaligned, empty, past the end) the word-walking ForEachFreeRun, FreeRunHist
# and a block-by-block Test loop agree on every run, count, bucket and the
# longest run, and fn returning false stops the walk.
go test -run '^$' -fuzz '^FuzzFreeRuns$' -fuzztime 5s ./internal/bitmap
# Strided-count differential fuzzer: for any bitmap size, fill pattern, start,
# run, stride and run count (word-aligned or not, runs holding whole pages or
# reaching past the end) CountFreeStrided equals the sum of per-run CountFree.
go test -run '^$' -fuzz '^FuzzCountFreeStrided$' -fuzztime 5s ./internal/bitmap
# Shared clause-grammar fuzzer: the field splitter hands out trimmed, unique,
# comma-free fields that re-join and re-split to themselves; the fault-plan
# parser rides along for its parse/format round trip.
go test -run '^$' -fuzz '^FuzzClause$' -fuzztime 5s ./internal/obs/rule
# SLO-spec parser fuzzer: any accepted spec string must round-trip through
# its canonical formatting to an identical portfolio.
go test -run '^$' -fuzz '^FuzzParseSLOSpec$' -fuzztime 5s ./internal/obs/slo
# Optrace trace-ID / config-spec parser fuzzer: anything accepted must
# round-trip through its canonical formatting.
go test -run '^$' -fuzz '^FuzzParseOptrace$' -fuzztime 5s ./internal/obs/optrace
# Control-policy parser fuzzer: any accepted clause string must round-trip
# through its canonical formatting to an identical portfolio.
go test -run '^$' -fuzz '^FuzzParseControlPolicy$' -fuzztime 5s ./internal/control

# Refcount-table fuzzer: random set/remove/unref sequences through the paged
# table and a map reference must agree on counts, panics and page reuse.
go test -run '^$' -fuzz '^FuzzRefTable$' -fuzztime 5s ./internal/wafl
# Whole-system snapshot fuzzer: a byte tape of writes, CPs, drains, punches,
# snapshot create/delete/restore and relocations (cleaner, Demote, TierOut)
# drives a System and the flat per-pair counts snapshot.go replaced; freed
# counts, both bitmaps, CheckRefcounts and the watchdogs must agree after
# every step, at both pipeline depths, with and without delayed frees, at
# staging-queue depth 0 and 4.
go test -run '^$' -fuzz '^FuzzSnapshotOps$' -fuzztime 5s ./internal/wafl

# Observability smoke test: a small bench run must serve /metrics (the bench
# self-checks the endpoint and exits nonzero if it cannot fetch it). The
# default SLO portfolio and the closed-loop controller ride along, and the
# audit that follows every run
# with shared sinks exits nonzero unless the watchdogs ran clean, the clean
# figure arms fired no warn or page and actuated nothing, and the latency
# attribution reconciles.
tmpdir=$(mktemp -d)
live_pid=""
cleanup() {
    status=$?
    if [ "$status" -ne 0 ]; then
        echo "=== verify.sh failed (exit $status) ===" >&2
        for f in live.out snap.out; do
            if [ -f "$tmpdir/$f" ]; then
                echo "--- $f ---" >&2
                cat "$tmpdir/$f" >&2
            fi
        done
    fi
    if [ -n "$live_pid" ]; then
        kill "$live_pid" 2>/dev/null || true
        wait "$live_pid" 2>/dev/null || true
    fi
    rm -rf "$tmpdir"
}
trap cleanup EXIT
go build -o "$tmpdir/waflbench" ./cmd/waflbench
"$tmpdir/waflbench" -exp fig9 -scale 0.05 \
    -metrics-addr 127.0.0.1:0 \
    -slo default \
    -control default >/dev/null

# Allocator pick-path smoke: the striped arm's modeled pick wall-clock at
# 8 workers must beat the shared arm's, or the bench exits nonzero. Also
# exercises -trace-collapse end to end: alone, it arms the default op-trace
# sampling and folds the sampled ops' critical paths.
"$tmpdir/waflbench" -exp allocbench -scale 0.1 \
    -trace-collapse "$tmpdir/pick.folded" >/dev/null
test -s "$tmpdir/pick.folded"

# Benchmark-artifact smoke test: a tiny-scale artifact of the whole registry
# must collect (every gate and the audit pass), and benchdiff comparing it
# against itself must report zero drift (exit 0) — the regression gate's own
# sanity check. The committed baseline is
# auto-selected (highest-numbered BENCH_<n>.json) and must self-compare
# clean too, proving the gate can read what the repo ships.
go build -o "$tmpdir/benchdiff" ./cmd/benchdiff
"$tmpdir/waflbench" -bench-json "$tmpdir/BENCH_smoke.json" -scale 0.05 >/dev/null
test -s "$tmpdir/BENCH_smoke.json"
"$tmpdir/benchdiff" "$tmpdir/BENCH_smoke.json" "$tmpdir/BENCH_smoke.json"
latest=$("$tmpdir/benchdiff" -print-latest)
test -s "$latest"
"$tmpdir/benchdiff" "$latest" "$latest"

# Crash-recovery gate: crash at every CP phase × media fault at tiny scale;
# the bench exits nonzero if any recovered AA cache silently disagrees with
# the bitmap metafiles (see internal/faultinject and the mount-time scrub).
# The SLO portfolio must see the damage and the controller must act on it:
# the audit exits nonzero unless the crash cells paged the recovery SLI and
# the page kicked a scrub somewhere in the matrix.
"$tmpdir/waflbench" -exp crashmatrix -scale 0.05 \
    -slo default \
    -control default >/dev/null

# Pipelined-CP gate both ways: the clean overlap benchmark must clear its
# 1.3x floor with byte-identical final states and fire no SLO alert, and a
# crash in the overlap window (alloc of generation n+1 racing the flush of
# generation n) must recover without silent divergence while paging the
# recovery SLI (the audit holds both SLO postures).
"$tmpdir/waflbench" -exp pipelinebench -scale 0.05 \
    -slo default >/dev/null
"$tmpdir/waflbench" -exp pipelinecrash -scale 0.05 \
    -slo default >/dev/null

# Live-introspection smoke test: hold the live endpoints after a small run
# (with the SLO engine, op tracer, and closed-loop controller armed) and
# point wafltop -snapshot at them; it exits nonzero unless the embedded
# time-series store serves nonzero per-CP series, and also if any SLO
# instance is paging or any controller policy is mid-flap. The snapshot must
# include the SLO, slowest-ops, and control-plane panels, /debug/slo and
# /debug/control must serve populated status documents, and /debug/optrace
# must serve a sampled trace that can be fetched back individually by its ID
# (the "explain this exemplar" path).
go build -o "$tmpdir/wafltop" ./cmd/wafltop
"$tmpdir/waflbench" -exp fig9 -scale 0.05 \
    -metrics-addr 127.0.0.1:0 -slo default -optrace rate=2 \
    -control default -hold 60s >"$tmpdir/live.out" 2>&1 &
live_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^serving live endpoints at http://\([^ ]*\).*#\1#p' "$tmpdir/live.out")
    if [ -n "$addr" ] && grep -q "completed in" "$tmpdir/live.out"; then
        break
    fi
    sleep 0.2
done
test -n "$addr"
fetch() {
    curl -fsS "$1" 2>/dev/null || wget -qO - "$1"
}
"$tmpdir/wafltop" -addr "$addr" -snapshot >"$tmpdir/snap.out"
grep -q "SLO portfolio" "$tmpdir/snap.out"
grep -q "slowest sampled ops" "$tmpdir/snap.out"
grep -q "control plane" "$tmpdir/snap.out"
"$tmpdir/wafltop" -addr "$addr" -json >"$tmpdir/top.json"
grep -q '"optrace"' "$tmpdir/top.json"
grep -q '"control"' "$tmpdir/top.json"
fetch "http://$addr/debug/slo" >"$tmpdir/slo.json"
grep -q '"evaluations"' "$tmpdir/slo.json"
fetch "http://$addr/debug/control" >"$tmpdir/control.json"
grep -q '"actuations"' "$tmpdir/control.json"
grep -q '"knobs"' "$tmpdir/control.json"
fetch "http://$addr/debug/optrace?limit=3" >"$tmpdir/optrace.json"
grep -q '"sampled"' "$tmpdir/optrace.json"
# Newest surviving trace ID in the document (trace arrays follow the
# exemplar lists, so the last "id" belongs to a live ring entry)...
tid=$(sed -n 's/^ *"id": \([0-9][0-9]*\),*$/\1/p' "$tmpdir/optrace.json" | tail -n 1)
test -n "$tid"
# ...must be fetchable on its own, the way an SLO exemplar is chased down.
fetch "http://$addr/debug/optrace?id=$tid" >"$tmpdir/trace.json"
grep -q "\"id\": $tid" "$tmpdir/trace.json"
kill "$live_pid" 2>/dev/null || true
wait "$live_pid" 2>/dev/null || true
live_pid=""
