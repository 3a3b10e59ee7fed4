#!/bin/sh
# check.sh — the repo's fast correctness gate (`make check`).
#
#   gofmt -l .                            formatting drift fails the gate
#   go vet ./...                          static analysis
#   go build ./...                        everything compiles
#   go test ./...                         tier-1 suite
#   go test -race ./internal/sim/... ./internal/harness/... ./internal/core/... ./internal/fleet/...
#                                         coroutine hand-off + engine +
#                                         rig + observer attach +
#                                         lockstep cluster paths under
#                                         the race detector (the parallel
#                                         engine's safety precondition)
#   go test -cover (floors)               per-package coverage floors on
#                                         the packages where a silent
#                                         regression is most dangerous
#   doclint                               every exported identifier in
#                                         internal/ebpf carries a doc
#                                         comment (scripts/doclint)
#   bench smoke                           the substrate benchmarks that
#                                         scripts/bench.sh records run
#                                         for one iteration each, and
#                                         BenchmarkProcHandoff and
#                                         BenchmarkProcHandoffContended
#                                         report 0 allocs/op
#   fleet smoke                           the same cluster sweep at
#                                         -parallel 1 and 2 must print
#                                         byte-identical output
#   cardinality smoke                     the quick sketch sweep must
#                                         match its checked-in golden
#                                         rendering byte-for-byte
#   waitstates smoke                      the quick wait-state sweep
#                                         must match its checked-in
#                                         golden rendering byte-for-byte
#   attribution smoke                     the quick fault-attribution
#                                         matrix and autoscale table
#                                         must match their checked-in
#                                         golden renderings
#   examples smoke                        build and run every examples/*
#                                         binary with tiny parameters so
#                                         the documented entry points
#                                         cannot rot
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== doclint (internal/ebpf)"
# Exported identifiers in the VM package must carry doc comments; the
# two-backend API surface is documented by contract (see
# scripts/doclint).
go run ./scripts/doclint ./internal/ebpf

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race ./internal/sim/... ./internal/harness/... ./internal/core/... ./internal/fleet/..."
# The race-instrumented harness suite runs ~10x slower than native on a
# single core; give it explicit headroom past go test's 10m default.
go test -race -timeout 20m ./internal/sim/... ./internal/harness/... ./internal/core/... ./internal/fleet/...

echo "== go test -cover (floors)"
# cover_floor <pkg> <floor-pct> fails the gate when the package's
# statement coverage drops below the floor.
cover_floor() {
    pkg=$1
    floor=$2
    line=$(go test -cover "$pkg")
    pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "no coverage reported for $pkg:" >&2
        echo "$line" >&2
        exit 1
    fi
    if [ "$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p >= f) ? "ok" : "low" }')" != ok ]; then
        echo "coverage for $pkg is ${pct}%, below the ${floor}% floor" >&2
        exit 1
    fi
    echo "$pkg: ${pct}% (floor ${floor}%)"
}
cover_floor ./internal/ebpf 70
cover_floor ./internal/probes 70
cover_floor ./internal/core 70
cover_floor ./internal/faults 70
cover_floor ./internal/stats 70
cover_floor ./internal/trace 70
cover_floor ./internal/telemetry 70
cover_floor ./internal/resilience 70
cover_floor ./internal/fleet 70
cover_floor ./internal/control 70

echo "== bench smoke (substrate benches, 1 iteration)"
# Every microbenchmark scripts/bench.sh records must still run; a
# broken bench would otherwise surface only at `make bench` time. One
# iteration each — this checks they execute, not their numbers.
go test -run '^$' -benchtime 1x \
    -bench '^(BenchmarkEBPFInterpreterListing1|BenchmarkEBPFCompiledListing1|BenchmarkEBPFVerifier|BenchmarkSimulatorEventThroughput|BenchmarkKernelSyscallPath)$' \
    . >/dev/null
# The proc hand-off is the simulator's innermost loop: besides running,
# neither Sleep path — elided (a lone sleeper) or parked (contended) —
# may allocate.
handoff=$(go test -run '^$' -benchtime 1000x -bench '^BenchmarkProcHandoff(Contended)?$' .)
for bench in BenchmarkProcHandoff BenchmarkProcHandoffContended; do
    if ! echo "$handoff" | grep "^$bench\(-[0-9]*\)\?[[:space:]].*[[:space:]]0 allocs/op" >/dev/null; then
        echo "$bench did not run or did not report 0 allocs/op" >&2
        exit 1
    fi
done
go test -run '^$' -benchtime 1x -bench '^(BenchmarkRingbufThroughput|BenchmarkSketchHotPath)$' \
    ./internal/ebpf/ >/dev/null
go test -run '^$' -benchtime 1x -bench '^BenchmarkWaitStateHotPath$' \
    ./internal/probes/ >/dev/null
go test -run '^$' -benchtime 1x -bench '^BenchmarkDetectorHotPath$' \
    ./internal/control/ >/dev/null
go test -run '^$' -benchtime 1x -bench '^BenchmarkFleetEpochs$' \
    ./internal/fleet/ >/dev/null

echo "== fleet smoke (cluster sweep, parallel vs sequential)"
# The fleet layer's determinism contract, exercised against the real
# binary: the same cluster sweep at -parallel 1 and -parallel 2 must
# print byte-identical output.
fldir=$(mktemp -d)
go build -o "$fldir/reqlens" ./cmd/reqlens
"$fldir/reqlens" fleet -quick -nodes 6 -epochs 4 -parallel 1 >"$fldir/seq.out"
"$fldir/reqlens" fleet -quick -nodes 6 -epochs 4 -parallel 2 >"$fldir/par.out"
if ! diff -u "$fldir/seq.out" "$fldir/par.out"; then
    echo "fleet sweep diverged between -parallel 1 and -parallel 2" >&2
    rm -rf "$fldir"
    exit 1
fi
echo "   parallel vs sequential fleet sweep: byte-identical"
rm -rf "$fldir"

echo "== cardinality smoke (sketch sweep vs golden)"
# The sketch pipeline's end-to-end contract against the real binary:
# the quick cardinality sweep (compiled sketch helpers, Zipf stream,
# bound/recall columns) must match the checked-in rendering
# byte-for-byte. `make golden` regenerates the fixture after an
# intentional change.
cddir=$(mktemp -d)
go build -o "$cddir/reqlens" ./cmd/reqlens
"$cddir/reqlens" cardinality -quick >"$cddir/card.out"
if ! diff -u internal/harness/testdata/golden/cardinality.txt "$cddir/card.out"; then
    echo "cardinality output diverged from golden (make golden if intentional)" >&2
    rm -rf "$cddir"
    exit 1
fi
echo "   cardinality sweep vs golden: byte-identical"
rm -rf "$cddir"

echo "== waitstates smoke (wait-state sweep vs golden)"
# The wait-state pipeline's end-to-end contract against the real
# binary: the quick silo sweep (sched-probe decomposition table + fault
# diagnosis + folded stacks) must match the checked-in rendering
# byte-for-byte. `make golden` regenerates the fixture after an
# intentional change.
wsdir=$(mktemp -d)
go build -o "$wsdir/reqlens" ./cmd/reqlens
"$wsdir/reqlens" waitstates -quick -workload silo >"$wsdir/ws.out"
if ! diff -u internal/harness/testdata/golden/waitstates.txt "$wsdir/ws.out"; then
    echo "waitstates output diverged from golden (make golden if intentional)" >&2
    rm -rf "$wsdir"
    exit 1
fi
echo "   wait-state sweep vs golden: byte-identical"
rm -rf "$wsdir"

echo "== attribution smoke (fault matrix vs golden)"
# The closed-loop control path's end-to-end contract against the real
# binary: the quick supervised attribution matrix (online detector +
# cause attributor over injected faults, scored against ground truth)
# must match the checked-in rendering byte-for-byte. `make golden`
# regenerates the fixture after an intentional change.
atdir=$(mktemp -d)
go build -o "$atdir/reqlens" ./cmd/reqlens
"$atdir/reqlens" attribution -quick -trials 2 >"$atdir/attr.out"
if ! diff -u internal/harness/testdata/golden/attribution.txt "$atdir/attr.out"; then
    echo "attribution output diverged from golden (make golden if intentional)" >&2
    rm -rf "$atdir"
    exit 1
fi
"$atdir/reqlens" autoscale -quick >"$atdir/auto.out"
if ! diff -u internal/harness/testdata/golden/autoscale.txt "$atdir/auto.out"; then
    echo "autoscale output diverged from golden (make golden if intentional)" >&2
    rm -rf "$atdir"
    exit 1
fi
echo "   attribution matrix + autoscale vs golden: byte-identical"
rm -rf "$atdir"

echo "== resilience smoke (kill -9 mid-sweep, resume, diff)"
# The supervision stack's end-to-end contract, exercised against the
# real binary: a journaled sweep is SIGKILLed after its first
# checkpoint lands, resumed from the (possibly torn) journal, and the
# resumed output must be byte-identical to an uninterrupted run.
rsdir=$(mktemp -d)
go build -o "$rsdir/reqlens" ./cmd/reqlens
"$rsdir/reqlens" fig2 -quick -workload silo -seed 42 >"$rsdir/full.out"
"$rsdir/reqlens" fig2 -quick -workload silo -seed 42 \
    -journal "$rsdir/run.jsonl" -parallel 2 >/dev/null &
pid=$!
# Kill as soon as the first checkpoint is durably in the journal.
for _ in $(seq 1 600); do
    if grep -q '"kind":"checkpoint"' "$rsdir/run.jsonl" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
if ! grep -q '"kind":"checkpoint"' "$rsdir/run.jsonl"; then
    # The quick sweep can outrun the poll loop; a completed journal
    # still exercises the resume path (all points cached).
    echo "   (sweep finished before the kill; resuming a complete journal)"
fi
"$rsdir/reqlens" resume -journal "$rsdir/run.jsonl" >"$rsdir/resumed.out" 2>/dev/null
if ! diff -u "$rsdir/full.out" "$rsdir/resumed.out"; then
    echo "resumed output diverged from the uninterrupted run" >&2
    rm -rf "$rsdir"
    exit 1
fi
echo "   kill -9 + resume: byte-identical"
rm -rf "$rsdir"

echo "== examples smoke"
# Build every example binary, then run each with parameters small enough
# to keep the leg under a couple of minutes. Output is discarded; a
# non-zero exit fails the gate.
exdir=$(mktemp -d)
trap 'rm -rf "$exdir"' EXIT
go build -o "$exdir" ./examples/...
for ex in examples/*/; do
    name=$(basename "$ex")
    case "$name" in
    parallel-sweep)      args="-parallel 2" ;;
    netem-robustness)    args="-parallel 2" ;;
    telemetry-dashboard) args="-interval 200ms" ;;
    streaming-monitor)   args="-ring 65536" ;;
    fleet-monitor)       args="-nodes 8 -epochs 3" ;;
    *)                   args="" ;;
    esac
    echo "-- $name $args"
    # shellcheck disable=SC2086 # args is a deliberate word list
    "$exdir/$name" $args >/dev/null
done

echo "check: ok"
