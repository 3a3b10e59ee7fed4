# Developer entry points. `make check` is the gate each PR must pass.

.PHONY: check test race bench bench-ringbuf fmt vet build golden pgo mutate

check: ## gofmt + vet + doclint + deadapi + build + tests + race + coverage floors + smokes
	./scripts/check.sh

golden: ## regenerate every golden fixture: the .json windows, then the CLI's .txt renderings
	go test ./internal/harness -run TestGolden -update
	go test ./cmd/reqlens -run TestGoldenEntries -update

build:
	go build ./...

mutate: ## mutation-score the oracles' tests (~1 h, off the gate): per-file scores, scripts/mutate/testdata/survivors.txt
	go run ./scripts/mutate

pgo: ## refresh cmd/reqlens/default.pgo: a CPU profile of the bench/ basket, run in-process
	go test -run '^$$' -bench '^BenchmarkBasketProfile$$' -benchtime 2x -cpuprofile cmd/reqlens/default.pgo ./cmd/reqlens
	rm -f reqlens.test

test:
	go test ./...

race: ## the parallel engine's safety gate: the same packages as check's race leg
	go test -race -timeout 20m ./internal/sim/... ./internal/kernel/... ./internal/netsim/... ./internal/loadgen/... ./internal/workloads/... ./internal/harness/... ./internal/core/... ./internal/fleet/... ./internal/telemetry/...

bench: ## regenerate every table/figure at bench scale, then all BENCH_*.json microbenches
	go test -bench=. -benchmem
	./scripts/bench.sh

bench-ringbuf: ## ring-buffer producer-path throughput -> BENCH_ringbuf.json
	./scripts/bench.sh ringbuf

fmt:
	gofmt -w .

vet:
	go vet ./...
