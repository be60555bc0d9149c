# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make check` locally means a green build.

GO ?= go
SIMLINT := bin/simlint

.PHONY: build test race simcheck lint lint-fix-list lint-hotzero-list vet fmt-check check clean bench-json bench-compare bench-check fault-smoke sweep-smoke metrics-smoke decisions-smoke graph graph-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector only has goroutines to watch inside the
# orchestration scope (internal/sweep) and its consumer equivalence
# tests — everything else is single-threaded by the isosafe/nospawn
# contract, so racing the full suite would just slow CI down.
race:
	$(GO) test -race ./internal/sweep/ ./internal/experiments/

# Runtime invariant checks (event-time monotonicity, FTL bijectivity,
# cluster queue conservation, pooled-object lifecycle + leak ledger)
# compiled in via the simcheck build tag. Includes the seed-42 golden
# replay, so a leaked pooled object anywhere in a full run fails here
# with its pool's name.
simcheck:
	$(GO) test -tags simcheck ./internal/...

$(SIMLINT): $(shell find cmd/simlint internal/lint -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o $(SIMLINT) ./cmd/simlint

# simlint: the repository's determinism lint suite, run through go vet
# so analysis units and caching come from the build system. Runs twice:
# once over the default build and once with -tags simcheck, so the
# invariant-checking file variants are linted too. See
# docs/static-analysis.md.
lint: $(SIMLINT)
	$(GO) vet -vettool=$(SIMLINT) ./...
	$(GO) vet -tags simcheck -vettool=$(SIMLINT) ./...

# Every active //simlint:* suppression with file:line, for periodic
# audit (testdata fixtures excluded — their suppressions are the test).
lint-fix-list:
	@grep -rn '//simlint:[a-z]' --include='*.go' . \
		| grep -v '/testdata/' | grep -v '^./internal/lint/' | grep -v '^./cmd/simlint/' \
		| sed 's|^\./||' || echo "no active suppressions"

# Every audited hot-path escape (//simlint:cold pruned functions and
# //simlint:coldalloc allocation sites) with file:line — the standing
# review list for hotzero's allocation-freedom certificate.
lint-hotzero-list:
	@grep -rn '//simlint:cold' --include='*.go' . \
		| grep -v '/testdata/' | grep -v '^./internal/lint/' | grep -v '^./cmd/simlint/' \
		| sed 's|^\./||' || echo "no audited hot-path escapes"

# Regenerate the certified component-communication graph artifacts
# (docs/graph/components.{dot,json}) from source. Fails if any
# cross-package component reference is neither a componentEdges
# manifest row nor an audited //simlint:edge site, or if a manifest row
# no longer has a witnessing reference. See docs/architecture.md.
graph:
	$(GO) run ./cmd/simgraph

# CI variant: re-render in memory and fail if the committed artifacts
# are stale instead of rewriting them.
graph-check:
	$(GO) run ./cmd/simgraph -check

vet:
	$(GO) vet ./...

# gofmt cleanliness: fails listing any file that gofmt would rewrite
# (testdata fixtures included — they are parsed Go like everything else).
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# One pass over every figure/table benchmark with allocation stats,
# serialised to JSON (see docs/performance.md). BENCH_PR3.json is the
# committed baseline the CI bench smoke job compares against.
BENCH_JSON ?= BENCH_PR3.json
bench-json:
	$(GO) test . -run '^$$' -bench 'Benchmark(Table|Fig)' -benchtime 1x -benchmem \
		| $(GO) run ./cmd/benchjson -o $(BENCH_JSON)

# Fail if allocs/op regressed >10% against the committed baseline.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_PR3.json -against $(BENCH_JSON)

# The repository benchmark (perfbench/, see BENCHMARK.json) is its own
# Go module, so the root `go build ./...` and `go test ./...` never
# compile it. Vet and self-test it here so an API change that breaks
# the benchmark fails the build.
bench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Degraded-mode smoke: the degraded-array study (reference fault plan,
# reduced 2x4 geometry) written to FAULT_TABLE, plus the faulted golden
# replay and the fault lifecycle tests with the simcheck leak ledger
# armed. See docs/fault-injection.md.
FAULT_TABLE ?= fault-table.txt
fault-smoke:
	$(GO) run ./cmd/triplea-bench -experiment fault -requests 4000 \
		-switches 2 -clusters 4 | tee $(FAULT_TABLE)
	$(GO) test -tags simcheck -run 'TestFaultedGoldenReplay' -v ./internal/experiments/
	$(GO) test -tags simcheck ./internal/fault/

# Parallel-sweep smoke: the 16-point Fig12 sweep benchmarked serial vs
# parallel (wall-clock + speedup evidence, see docs/performance.md),
# serialized to SWEEP_JSON, plus the serial/parallel byte-equivalence
# tests and the race pass over the orchestration scope.
SWEEP_JSON ?= BENCH_PR6.json
sweep-smoke:
	$(GO) test . -run '^$$' -bench 'BenchmarkSweep' -benchtime 1x -benchmem \
		| $(GO) run ./cmd/benchjson -o $(SWEEP_JSON)
	$(GO) test -run 'TestParallel' -v ./internal/experiments/
	$(GO) test -race ./internal/sweep/

# Streaming-metrics smoke: the recorder footprint benchmarks (exact vs
# streaming at 10^5 and 10^6 requests, with the steady-state
# recorder-bytes/op metric) serialized to METRICS_JSON, gated flat
# (±10%) between the 100k and 1M streaming runs — the O(1)-state
# contract of docs/metrics.md — plus the streaming determinism/accuracy
# tests and an end-to-end streaming-backend run of Table 1.
METRICS_JSON ?= BENCH_PR8.json
metrics-smoke:
	$(GO) test . -run '^$$' -bench 'BenchmarkRecorder' -benchtime 1x -benchmem \
		| $(GO) run ./cmd/benchjson -o $(METRICS_JSON)
	$(GO) run ./cmd/benchjson -flat recorder-bytes/op \
		-names RecorderStreaming100k,RecorderStreaming1M -against $(METRICS_JSON)
	$(GO) test -run 'TestStreaming|TestPercentileNearestRank|TestPropertyStreamingAccuracy|TestSustainedIOPSBackendsAgree' \
		-v ./internal/metrics/ ./internal/experiments/
	$(GO) run ./cmd/triplea-bench -experiment table1 -requests 4000 \
		-switches 2 -clusters 4 -metrics streaming

# Decision flight-recorder smoke (see docs/decision-traces.md): the
# Table 2 baseline benchmark with recording off, gated against the
# committed baselines on BOTH allocs/op (vs BENCH_PR3.json — exact, the
# hot path must stay allocation-free) and ns/op (vs BENCH_PR10.json,
# ±10% — the zero-overhead-off contract), then the regret study table
# written to REGRET_TABLE, the seed-42 decision-trace golden, the
# pure-observation pin and the recorder unit tests.
DECISIONS_JSON ?= bench-decisions.json
REGRET_TABLE ?= regret-table.txt
decisions-smoke:
	$(GO) test . -run '^$$' -bench 'BenchmarkTable02Baseline' -benchtime 1x -benchmem \
		| $(GO) run ./cmd/benchjson -o $(DECISIONS_JSON)
	$(GO) run ./cmd/benchjson -compare BENCH_PR3.json -against $(DECISIONS_JSON) \
		-names Table02Baseline
	$(GO) run ./cmd/benchjson -compare BENCH_PR10.json -against $(DECISIONS_JSON) \
		-metric ns/op -names Table02Baseline
	$(GO) run ./cmd/triplea-bench -experiment regret -requests 4000 \
		-switches 2 -clusters 8 | tee $(REGRET_TABLE)
	$(GO) test -run 'TestDecisionTraceGolden|TestRecordingIsPureObservation|TestRegretStudySmoke' \
		-v ./internal/experiments/
	$(GO) test ./internal/decision/

check: build fmt-check vet lint graph-check test bench-check race simcheck

clean:
	rm -rf bin
