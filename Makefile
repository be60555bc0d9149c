# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make check` locally means a green build.

GO ?= go
SIMLINT := bin/simlint

.PHONY: build test race simcheck lint lint-fix-list lint-hotzero-list vet fmt-check check clean bench-check smoke fuzz

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

vet:
	$(GO) vet ./...

# gofmt cleanliness: fails listing any file that gofmt would rewrite
# (testdata fixtures included — they are parsed Go like everything else).
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The repository benchmark (perfbench/, see BENCHMARK.json) is its own
# Go module, so the root `go build ./...` and `go test ./...` never
# compile it. Vet and self-test it here so an API change that breaks
# the benchmark fails the build.
bench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# CI's smoke job (see docs/performance.md), writing only to the
# gitignored .smoke/: one pass over every figure/table benchmark into
# .smoke/bench.json, the three reduced study tables CI keeps as
# artifacts, then two gates on that one JSON. Every BENCH_PR3.json
# benchmark must be present and within 10% on allocs/op (the pooled hot
# path stays allocation-free), and Table02Baseline within 10% of
# BENCH_PR10.json on ns/op (the decision recorder's zero-overhead-off
# contract; BENCH_PR10.json was recorded from such a full pass).
smoke:
	mkdir -p .smoke
	$(GO) test . -run '^$$' -bench 'Benchmark(Table|Fig)' -benchtime 1x -benchmem \
		| $(GO) run ./cmd/benchjson -o .smoke/bench.json
	$(GO) run ./cmd/triplea-bench -experiment fault -requests 4000 \
		-switches 2 -clusters 4 | tee .smoke/fault-table.txt
	$(GO) run ./cmd/triplea-bench -experiment regret -requests 4000 \
		-switches 2 -clusters 8 | tee .smoke/regret-table.txt
	$(GO) run ./cmd/triplea-bench -experiment table1 -requests 4000 \
		-switches 2 -clusters 4 -metrics streaming | tee .smoke/table1-streaming.txt
	$(GO) run ./cmd/benchjson -compare BENCH_PR3.json -against .smoke/bench.json
	$(GO) run ./cmd/benchjson -compare BENCH_PR10.json -against .smoke/bench.json \
		-metric ns/op -names Table02Baseline

# Trace-decoder fuzzing: each target runs for 10 s on top of its
# committed seed corpus (internal/trace/testdata/fuzz). go test fuzzes
# one target per invocation. A failing input is written back into the
# corpus, where the plain test run replays it from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMSR$$' -fuzztime 10s ./internal/trace/

check: build fmt-check vet lint test bench-check race simcheck

clean:
	rm -rf bin .smoke
