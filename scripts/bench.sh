#!/bin/sh
# bench.sh — run the substrate microbenchmarks and write one
# BENCH_<name>.json per benchmark in the repo root, so successive PRs
# can diff hot-path cost. `make bench` runs this after the general
# figure-regeneration pass; `scripts/bench.sh <name>` regenerates a
# single file (e.g. `scripts/bench.sh ringbuf`).
#
# Each JSON records the benchmark's iterations and ns/op plus every
# extra metric the benchmark reports (MB/s, B/op, allocs/op, insns/op,
# ...) under a snake_case key.
set -eu

cd "$(dirname "$0")/.."

# registry: name|benchmark function|package
BENCHES="
ringbuf|BenchmarkRingbufThroughput|./internal/ebpf/
sketch|BenchmarkSketchHotPath|./internal/ebpf/
waitstate|BenchmarkWaitStateHotPath|./internal/probes/
control|BenchmarkDetectorHotPath|./internal/control/
jit|BenchmarkEBPFCompiledListing1|.
verifier|BenchmarkEBPFVerifier|.
sim|BenchmarkSimulatorEventThroughput|.
handoff|BenchmarkProcHandoffContended|.
syscall|BenchmarkKernelSyscallPath|.
syscall_contended|BenchmarkKernelSyscallPathContended|.
"

filter="${1:-}"
matched=0

# fleet is special-cased: BenchmarkFleetEpochs runs one sub-benchmark
# per cluster size, and BENCH_fleet.json records the whole scaling
# series (node_epochs/s and events/s vs node count) as a JSON array.
if [ -z "$filter" ] || [ "$filter" = fleet ]; then
    matched=1
    out=$(go test -run '^$' -bench '^BenchmarkFleetEpochs$' -benchmem ./internal/fleet/)
    echo "$out"
    echo "$out" | awk '
    BEGIN { printf "{\n  \"benchmark\": \"BenchmarkFleetEpochs\",\n  \"points\": [" }
    $1 ~ /^BenchmarkFleetEpochs\/nodes=/ {
        n = $1
        sub(/^.*nodes=/, "", n)
        sub(/-.*$/, "", n)
        printf "%s\n    {\"nodes\": %s, \"iterations\": %s", sep, n, $2
        sep = ","
        for (i = 3; i + 1 <= NF; i += 2) {
            key = $(i + 1)
            if (key == "ns/op")          key = "ns_per_op"
            else if (key == "B/op")      key = "bytes_per_op"
            else if (key == "allocs/op") key = "allocs_per_op"
            else {
                gsub(/\//, "_per_", key)
                gsub(/[^A-Za-z0-9_]/, "_", key)
            }
            printf ", \"%s\": %s", key, $i
        }
        printf "}"
        found = 1
    }
    END { if (!found) exit 1; printf "\n  ]\n}\n" }
    ' > BENCH_fleet.json
    echo "wrote BENCH_fleet.json:"
    cat BENCH_fleet.json
fi

for line in $BENCHES; do
    name=${line%%|*}
    rest=${line#*|}
    bench=${rest%%|*}
    pkg=${rest#*|}
    if [ -n "$filter" ] && [ "$filter" != "$name" ]; then
        continue
    fi
    matched=1
    out=$(go test -run '^$' -bench "^${bench}\$" -benchmem "$pkg")
    echo "$out"

    # A benchmark line is `Name-P  iters  value unit  value unit ...`;
    # map each unit to a stable snake_case JSON key.
    echo "$out" | awk -v bench="$bench" '
    $1 == bench || $1 ~ "^" bench "-" {
        printf "{\n  \"benchmark\": \"%s\",\n  \"iterations\": %s", $1, $2
        for (i = 3; i + 1 <= NF; i += 2) {
            key = $(i + 1)
            if (key == "ns/op")          key = "ns_per_op"
            else if (key == "MB/s")      key = "mb_per_s"
            else if (key == "B/op")      key = "bytes_per_op"
            else if (key == "allocs/op") key = "allocs_per_op"
            else {
                gsub(/\//, "_per_", key)
                gsub(/[^A-Za-z0-9_]/, "_", key)
            }
            printf ",\n  \"%s\": %s", key, $i
        }
        printf "\n}\n"
        found = 1
        exit
    }
    END { if (!found) exit 1 }
    ' > "BENCH_${name}.json"

    echo "wrote BENCH_${name}.json:"
    cat "BENCH_${name}.json"
done

if [ "$matched" -eq 0 ]; then
    echo "bench.sh: unknown benchmark \"$filter\"" >&2
    exit 2
fi
