#!/bin/sh
# check.sh — the repo's fast correctness gate (`make check`).
#
#   gofmt -l .                            formatting drift fails the gate
#   go vet ./...                          static analysis
#   go build ./...                        everything compiles
#   go test ./...                         tier-1 suite
#   go test -race ./internal/sim/... ./internal/kernel/... ./internal/netsim/...
#                 ./internal/loadgen/... ./internal/harness/... ./internal/core/...
#                 ./internal/fleet/... ./internal/telemetry/...
#                                         coroutine hand-off + scheduler
#                                         continuations run from the
#                                         event loop + loop threads +
#                                         engine +
#                                         rig + observer attach +
#                                         lockstep cluster paths +
#                                         registration against export
#                                         under the race detector (the
#                                         parallel engine's safety
#                                         precondition)
#   go test -cover (floors)               per-package coverage floors on
#                                         the packages where a silent
#                                         regression is most dangerous
#   doclint                               every exported identifier in
#                                         internal/ebpf carries a doc
#                                         comment (scripts/doclint)
#   deadapi                               every top-level internal/
#                                         declaration, method and
#                                         unexported struct field has a
#                                         reader besides its own
#                                         package's tests (resolved with
#                                         go/types; a write is no read),
#                                         or an allowlist entry with a
#                                         reason (scripts/deadapi)
#   bench smoke                           the substrate benchmarks that
#                                         scripts/bench.sh records run
#                                         for one iteration each, and
#                                         BenchmarkProcHandoff,
#                                         BenchmarkProcHandoffContended,
#                                         BenchmarkKernelSyscallPathContended,
#                                         BenchmarkNetRecvBlocking and
#                                         BenchmarkRingbufThroughput
#                                         report 0 allocs/op, the contended
#                                         syscall ≤ 1.00 switches/op, and
#                                         BenchmarkScrapeEpoch stays at
#                                         its allocs/op; the eBPF
#                                         benches report 0 allocs/op
#                                         and the wait-state program its
#                                         69 insns/op
#   fleet smoke                           the same cluster sweep at
#                                         -parallel 1 and 2 must print
#                                         byte-identical output
#   resilience smoke                      kill -9 a journaled sweep,
#                                         resume it, diff against an
#                                         uninterrupted run
#   examples smoke                        build and run every examples/*
#                                         binary (each takes no arguments),
#                                         and bpfasm -prog list and
#                                         tracedump -max 20, so the
#                                         documented entry points cannot rot
#
# The rendered goldens (robustness, cardinality, waitstates,
# attribution, autoscale) are diffed by `go test ./cmd/reqlens`, through
# the same run that main dispatches to. Each leg prints its elapsed
# seconds, and the script the total, so the gate's time budget is
# measured here.
set -eu

cd "$(dirname "$0")/.."

t_start=$(date +%s)
leg_name=
# leg <name> reports how long the previous leg took and announces the next.
leg() {
    now=$(date +%s)
    [ -z "$leg_name" ] || echo "   ($leg_name: $((now - t_leg))s)"
    echo "== $1"
    leg_name=$1
    t_leg=$now
}

leg "gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

leg "go vet"
go vet ./...

leg "doclint (internal/ebpf)"
# Exported identifiers in the VM package must carry doc comments (see
# scripts/doclint).
go run ./scripts/doclint ./internal/ebpf

leg "deadapi (internal/ API and state with no reader but its own tests)"
go run ./scripts/deadapi

leg "go build"
go build ./...

leg "go test"
go test ./...

race_pkgs="./internal/sim/... ./internal/kernel/... ./internal/netsim/... ./internal/loadgen/... ./internal/harness/... ./internal/core/... ./internal/fleet/... ./internal/telemetry/..."
leg "go test -race $race_pkgs"
# The race-instrumented harness suite runs ~10x slower than native on a
# single core; give it explicit headroom past go test's 10m default.
# shellcheck disable=SC2086 # race_pkgs is a deliberate word list
go test -race -timeout 20m $race_pkgs

leg "go test -cover (floors)"
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
cover_floor ./internal/loadgen 70
cover_floor ./internal/kernel 70

leg "bench smoke (substrate benches, 1 iteration)"
# Every microbenchmark scripts/bench.sh records must still run; a
# broken bench would otherwise surface only at `make bench` time. One
# iteration each — this checks they execute, not their numbers.
go test -run '^$' -benchtime 1x \
    -bench '^(BenchmarkEBPFVerifier|BenchmarkSimulatorEventThroughput|BenchmarkKernelSyscallPath)$' \
    . >/dev/null
# The proc hand-off is the simulator's innermost loop: besides running,
# neither Sleep path — elided (a lone sleeper) or parked (contended) —
# may allocate, nor may a syscall that goes through the run queue, nor a
# round trip through netsim's blocking recv and epoll_wait. A syscall's
# stages are one continuation: its thread's coroutine resumes at most
# once per syscall.
handoff=$(go test -run '^$' -benchtime 1000x -bench '^(BenchmarkProcHandoff(Contended)?|BenchmarkKernelSyscallPathContended|BenchmarkNetRecvBlocking)$' .)
for bench in BenchmarkProcHandoff BenchmarkProcHandoffContended BenchmarkKernelSyscallPathContended BenchmarkNetRecvBlocking; do
    if ! echo "$handoff" | grep "^$bench\(-[0-9]*\)\?[[:space:]].*[[:space:]]0 allocs/op" >/dev/null; then
        echo "$bench did not run or did not report 0 allocs/op" >&2
        exit 1
    fi
done
switches=$(echo "$handoff" | sed -n 's/^BenchmarkKernelSyscallPathContended.*[[:space:]]\([0-9.]*\) switches\/op.*/\1/p')
if [ -z "$switches" ] || [ "$(awk -v s="$switches" 'BEGIN { print (s <= 1.00) ? "ok" : "high" }')" != ok ]; then
    echo "BenchmarkKernelSyscallPathContended switched into a coroutine ${switches:-?} times per syscall, above 1.00:" >&2
    echo "$handoff" >&2
    exit 1
fi
go test -run '^$' -benchtime 1x -bench '^BenchmarkSketchHotPath$' \
    ./internal/ebpf/ >/dev/null
# The ring sink's path: Output into a store already grown to its working
# size, and Consume handing each record over in place, allocate nothing.
ring=$(go test -run '^$' -benchtime 1000x -benchmem -bench '^BenchmarkRingbufThroughput$' ./internal/ebpf/)
if ! echo "$ring" | grep '^BenchmarkRingbufThroughput.*[[:space:]]0 allocs/op' >/dev/null; then
    echo "BenchmarkRingbufThroughput did not run or allocates:" >&2
    echo "$ring" >&2
    exit 1
fi
# Program.Run reuses the run state parked on its Program: no run may allocate.
# The wait-state switch program's 69 instructions per event is the
# modeled cost the < 1 % probe-overhead claim rests on (EXPERIMENTS.md).
jit=$(go test -run '^$' -benchtime 1000x -benchmem -bench '^BenchmarkEBPFCompiledListing1$' .)
ws=$(go test -run '^$' -benchtime 1000x -benchmem -bench '^BenchmarkWaitStateHotPath$' ./internal/probes/)
if ! echo "$jit" | grep '^BenchmarkEBPFCompiledListing1.*[[:space:]]0 allocs/op' >/dev/null ||
    ! echo "$ws" | grep '^BenchmarkWaitStateHotPath.*[[:space:]]69\.00 insns/op.*[[:space:]]0 allocs/op' >/dev/null; then
    echo "the eBPF benches did not run, allocate, or the wait-state program is no longer 69 insns/op:" >&2
    echo "$jit" >&2
    echo "$ws" >&2
    exit 1
fi
go test -run '^$' -benchtime 1x -bench '^BenchmarkDetectorHotPath$' \
    ./internal/control/ >/dev/null
go test -run '^$' -benchtime 1x -bench '^BenchmarkFleetEpochs$' \
    ./internal/fleet/ >/dev/null
# The scrape plane's budget is one allocation per scrape (its Raw) plus
# the rollup's two ranking slices: 18 of an epoch's allocs/op on 16
# nodes. The other ~62 are the simulated 1 ms of traffic (the request
# and response messages, the eBPF hash maps, loadgen's bookkeeping).
# TestScrapePlaneAllocs pins the 18 alone. The sum is seeded but not
# exact: Go maps under insert/delete churn (the probes' start map,
# loadgen's sentAt) grow when their per-map random hash seed says so,
# and GC cycles add runtime allocations, a few per 500 epochs either
# way. Over the first 500 epochs the mean sits at 80.99-81.01 and the
# truncated allocs/op flips between 80 and 81; over 1000 it is 80.46,
# so the gate reads 1000.
scrape_allocs_max=80
scrape=$(go test -run '^$' -benchtime 1000x -bench '^BenchmarkScrapeEpoch$' ./internal/fleet/)
allocs=$(echo "$scrape" | sed -n 's/^BenchmarkScrapeEpoch.*[[:space:]]\([0-9][0-9]*\) allocs\/op.*/\1/p')
if [ -z "$allocs" ] || [ "$allocs" -gt "$scrape_allocs_max" ]; then
    echo "BenchmarkScrapeEpoch did not run or allocates ${allocs:-?} times per epoch, above $scrape_allocs_max:" >&2
    echo "$scrape" >&2
    exit 1
fi

# The two legs below need a real process (a second -parallel setting, a
# SIGKILL), so cmd/reqlens is built once for both.
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir/reqlens" ./cmd/reqlens

leg "fleet smoke (cluster sweep, parallel vs sequential)"
"$bindir/reqlens" fleet -quick -nodes 6 -epochs 4 -parallel 1 >"$bindir/seq.out"
"$bindir/reqlens" fleet -quick -nodes 6 -epochs 4 -parallel 2 >"$bindir/par.out"
if ! diff -u "$bindir/seq.out" "$bindir/par.out"; then
    echo "fleet sweep diverged between -parallel 1 and -parallel 2" >&2
    exit 1
fi
echo "   parallel vs sequential fleet sweep: byte-identical"

leg "resilience smoke (kill -9 mid-sweep, resume, diff)"
# The journaled sweep is SIGKILLed after its first checkpoint lands and
# resumed from the (possibly torn) journal.
"$bindir/reqlens" fig2 -quick -workload silo -seed 42 >"$bindir/full.out"
"$bindir/reqlens" fig2 -quick -workload silo -seed 42 \
    -journal "$bindir/run.jsonl" -parallel 2 >/dev/null &
pid=$!
# Kill as soon as the first checkpoint is durably in the journal.
for _ in $(seq 1 600); do
    if grep -q '"kind":"checkpoint"' "$bindir/run.jsonl" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
if ! grep -q '"kind":"checkpoint"' "$bindir/run.jsonl"; then
    # The quick sweep can outrun the poll loop; a completed journal
    # still exercises the resume path (all points cached).
    echo "   (sweep finished before the kill; resuming a complete journal)"
fi
"$bindir/reqlens" resume -journal "$bindir/run.jsonl" >"$bindir/resumed.out" 2>/dev/null
if ! diff -u "$bindir/full.out" "$bindir/resumed.out"; then
    echo "resumed output diverged from the uninterrupted run" >&2
    exit 1
fi
echo "   kill -9 + resume: byte-identical"

leg "examples smoke"
# Build every example binary, then run each. Output is discarded; a
# non-zero exit fails the gate.
exdir="$bindir/examples"
mkdir "$exdir"
go build -o "$exdir" ./examples/...
for ex in examples/*/; do
    name=$(basename "$ex")
    echo "-- $name"
    "$exdir/$name" >/dev/null
done
# The two inspection CLIs ride along: the program table and a short raw
# trace (bpfasm's per-program listings are goldened by its own test).
go build -o "$bindir" ./cmd/bpfasm ./cmd/tracedump
echo "-- bpfasm -prog list"
"$bindir/bpfasm" -prog list >/dev/null
echo "-- tracedump -max 20"
"$bindir/tracedump" -max 20 >/dev/null

leg "done"
echo "check: ok ($(($(date +%s) - t_start))s in total)"
