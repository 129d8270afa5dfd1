# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make check` locally means a green build.

GO ?= go
SIMLINT := bin/simlint

.PHONY: build test race simcheck fuzz lint lint-fix-list vet fmt-check check clean bench-json bench-compare fault-smoke sweep-smoke metrics-smoke decisions-smoke

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
# compiled in via the simcheck build tag. This is the pool-ownership
# gate: it includes the seed-42 golden replays (plain, faulted and
# retrain/deferral) and the fault-lifecycle table, so a leaked or
# doubly released pooled object anywhere in a run fails here with its
# pool's name.
simcheck:
	$(GO) test -tags simcheck ./internal/...

# Short native-fuzzing pass over the event engine's firing order:
# FuzzEngineOrder (internal/simx) checks random schedules, full of
# same-instant ties, against an O(n^2) (when, seq) reference. Plain
# `go test` runs its seed corpus; this mutates beyond it for FUZZTIME.
# A failing input is written to internal/simx/testdata/fuzz/ — commit
# it, and it joins the corpus every `go test` replays.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime $(FUZZTIME) ./internal/simx

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

# Degraded-mode smoke: the degraded-array study (reference fault plan,
# reduced 2x4 geometry) written to FAULT_TABLE. The faulted golden
# replay and the fault-lifecycle tests run under `make simcheck`. See
# docs/fault-injection.md.
FAULT_TABLE ?= fault-table.txt
fault-smoke:
	$(GO) run ./cmd/triplea-bench -experiment fault -requests 4000 \
		-switches 2 -clusters 4 | tee $(FAULT_TABLE)

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

check: build fmt-check vet lint test race simcheck

clean:
	rm -rf bin
