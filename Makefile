.PHONY: build test bench bench-legacy check

build:
	go build ./...

test:
	go test ./...

# `bench` runs the repo benchmark BENCHMARK.json declares (bench/README.md):
# four workloads, end-to-end metrics with quartiles, then the traced pass.
bench:
	bash bench/run.sh

# `bench-legacy` runs the pre-PR 12 snapshot harness behind the committed
# BENCH_PR*.json files (QUICK=1 for a bounded smoke run; OUT= names the
# file), then the testing.B suite.
bench-legacy:
	./scripts/bench.sh
	go test -bench=. -benchmem ./...

# Extended tier-1 gate: vet + race-detector tests + fuzz smokes of every
# wire-decoder target. FUZZTIME=30s make check lengthens the fuzz budget.
check:
	./scripts/check.sh
