GO ?= go

.PHONY: all build test race racegate perfbench bench bench-json bench-smoke vet fmt fmt-check lint gate check check-baseline experiments

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-2 verification: vet plus the full suite under the race detector,
# including the concurrent-index/atomic-counter tests.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# racegate is the concurrency-verification gate (DESIGN.md §12): the
# adversarial serving scenarios (mixed load, reload storms, overload then
# drain, slow clients, racing Close) run under the race detector with
# goroutine-leak and stall watchdogs wrapped around each one
# (internal/verify). halt_on_error makes the first race fatal instead of
# a log line scrolling past. -count=1 defeats test caching: the gate's
# value is re-running the schedules, not replaying a cached PASS.
racegate:
	GORACE=halt_on_error=1 $(GO) test -race -count=1 -run 'TestRaceGate' ./internal/serve/ ./internal/verify/
	$(GO) test -race -count=1 ./internal/verify/

# perfbench vets and tests the nested benchmark module (perfbench/ has its
# own go.mod, so ./... above never reaches it). Its tests run every
# workload at tiny scale with all answer gates, which checks that the
# benchmark still builds against the serve and index APIs and that served
# answers still equal direct ones.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# fmt-check fails (listing the offenders) when any file needs gofmt; the CI
# formatting gate.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the repo's custom static-analysis suite (internal/analysis):
# maporder, seededrand, hotalloc, poolreduce, plus the dataflow analyzers
# scratchleak, lockbal, floatcmp, persistdrift. See DESIGN.md, "Enforced
# invariants". Also runnable as `go vet -vettool=<path>/mmdrlint ./...`;
# a single analyzer runs via `go run ./cmd/mmdrlint -only lockbal ./...`.
lint:
	$(GO) run ./cmd/mmdrlint ./...

# -run '^$' keeps the unit tests out of the benchmark run: without it every
# package's test suite executes before its benchmarks.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# gate runs the mmdrgate compiler-contract gate in strict mode: it rebuilds
# the hot-path packages with -m=2 and BCE debug diagnostics enabled and
# checks every //mmdr:hotpath function against the committed contract
# manifest (internal/analysis/gate/contracts). See DESIGN.md §11.
gate:
	$(GO) run ./cmd/mmdrgate -strict

# Default verification bundle: the gofmt gate CI enforces, vet, the custom
# analyzer suite, the full test suite, a short-mode pass of the race gate's
# serving scenarios, the benchmark module's tests, and a short fuzz smoke
# of the query-equivalence targets (each holds EXACT equality between the
# kernelized tree paths and the sequential-scan oracle, the last one across
# random insert/delete streams and the layout merges they trigger).
check: fmt-check perfbench
	$(GO) vet ./...
	$(GO) run ./cmd/mmdrlint ./...
	$(GO) run ./cmd/mmdrgate -strict
	$(GO) test ./...
	GORACE=halt_on_error=1 $(GO) test -race -count=1 -short -run 'TestRaceGate' ./internal/serve/
	$(GO) test ./internal/idist/ -run '^$$' -fuzz FuzzKNNvsSeqScan -fuzztime 10s
	$(GO) test ./internal/idist/ -run '^$$' -fuzz FuzzRangeVsSeqScan -fuzztime 10s
	$(GO) test ./internal/idist/ -run '^$$' -fuzz FuzzBatchKNNvsKNN -fuzztime 10s
	$(GO) test ./internal/idist/ -run '^$$' -fuzz FuzzWritesVsSeqScan -fuzztime 10s

# Regenerate BENCH_parallel.json: serial vs parallel build time, sequential
# vs fused-batch query throughput, and the worker sweep {1,2,4,8} at paper
# scale (n=100k, d=64).
# BENCH_query.json: kernelized vs frozen-reference query path at paper
# scale (n=100k, d=64) — ns/query, allocs/query, qps.
# BENCH_obs.json: cost of carrying the runtime-metrics layer on the KNN
# hot path (off vs on ns/query, budget ≤2%) plus the recorded latency
# distributions.
# BENCH_approx.json: the quantized-scan recall/QPS frontier — PQ code sizes
# x candidate budgets against the exact fused batch and sequential scan.
# BENCH_serve.json: end-to-end HTTP serving latency/QPS across a shard x
# client-concurrency sweep, gated on served answers being bitwise identical
# to direct BatchKNN.
bench-json:
	$(GO) run ./cmd/mmdrbench -scale paper -bench-parallel BENCH_parallel.json
	$(GO) run ./cmd/mmdrbench -scale paper -bench-query BENCH_query.json
	$(GO) run ./cmd/mmdrbench -scale paper -bench-obs BENCH_obs.json
	$(GO) run ./cmd/mmdrbench -scale paper -bench-approx BENCH_approx.json
	$(GO) run ./cmd/mmdrbench -scale paper -bench-serve BENCH_serve.json

# bench-smoke regenerates every BENCH_*.json at small scale — seconds, not
# minutes — so CI can verify the emitters end to end and archive the
# reports as artifacts. Numbers from this target are smoke signals only;
# use bench-json for quotable measurements.
bench-smoke:
	$(GO) run ./cmd/mmdrbench -scale small -bench-parallel BENCH_parallel.json
	$(GO) run ./cmd/mmdrbench -scale small -bench-query BENCH_query.json
	$(GO) run ./cmd/mmdrbench -scale small -bench-obs BENCH_obs.json
	$(GO) run ./cmd/mmdrbench -scale small -bench-approx BENCH_approx.json
	$(GO) run ./cmd/mmdrbench -scale small -bench-serve BENCH_serve.json

# check-baseline diffs a fresh small-scale query/approx run against the
# committed BENCH_query.json / BENCH_approx.json on the scale-portable
# fields (correctness gates, allocs/query, speedup collapse, report shape)
# and fails on regression. Raw nanoseconds are never compared — the
# committed reports are paper-scale. CI runs this as a non-blocking step.
check-baseline:
	$(GO) run ./cmd/mmdrbench -scale small -check-baseline

experiments:
	$(GO) run ./cmd/mmdrbench -experiment all -scale small
