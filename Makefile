# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make check` locally means a green build.

GO ?= go

.PHONY: build test race simcheck fuzz lint-fix-list vet fmt-check check fault-smoke bench

build:
	$(GO) build ./...

# Includes the repository lint: TestRepository (internal/lint/analyzers)
# runs the units and exhaustive analyzers over every package of the
# module, in the default build and with -tags simcheck. See
# docs/static-analysis.md.
test:
	$(GO) test ./...

# The race detector only has goroutines to watch inside the sweep pool
# (internal/sweep) and its consumer equivalence tests. The experiments
# tests drive every simulator package, so a goroutine started anywhere
# they reach races here too; racing the full suite would only slow CI
# down.
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

# Short native-fuzzing passes, FUZZTIME each. FuzzEngineOrder
# (internal/simx) checks random schedules, full of same-instant ties,
# against an O(n^2) (when, seq) reference. FuzzFTLOps (internal/ftl)
# checks random sequences of FTL calls against a plain map model of the
# translation. FuzzNANDOps (internal/nand) checks random sequences of
# program, read, erase, stale-mark, populate and force-erase calls on
# one package against plain maps of page states, program pointers and
# erase counts, on blocks at its chunk and radix boundaries. FuzzDecode (internal/trace) checks that trace decoding
# never panics and that an accepted trace survives Encode then Decode.
# FuzzAdmission (internal/array) checks RC admission on a 1x1 array:
# every request finishes exactly once, writes are admitted in (request,
# page) order, and no RC stall is negative. FuzzConfig (internal/array)
# checks that a config Validate rejects fails New, and that one it
# accepts builds and serves a few reads without an error or a panic.
# FuzzRecorder (internal/metrics) feeds random Record/RecordFailure
# sequences to an Exact and a Streaming recorder: every summary agrees,
# every percentile is within the histogram bound of the sorted log's
# nearest rank, and sustained IOPS equals a map scan of the log.
# FuzzPlan (internal/fault) builds fault plans from scripted events and a
# random tail: Validate never panics, Materialize is deterministic and
# sorted, random events lie inside the geometry, an accepted plan fires
# every event on an idle array, and Attach panics on a rejected one.
# Plain `go test` runs their seed corpora; this mutates beyond them. A failing input is written to the package's
# testdata/fuzz/ — commit it, and it joins the corpus every `go test`
# replays.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime $(FUZZTIME) ./internal/simx
	$(GO) test -run '^$$' -fuzz '^FuzzFTLOps$$' -fuzztime $(FUZZTIME) ./internal/ftl
	$(GO) test -run '^$$' -fuzz '^FuzzNANDOps$$' -fuzztime $(FUZZTIME) ./internal/nand
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzAdmission$$' -fuzztime $(FUZZTIME) ./internal/array
	$(GO) test -run '^$$' -fuzz '^FuzzConfig$$' -fuzztime $(FUZZTIME) ./internal/array
	$(GO) test -run '^$$' -fuzz '^FuzzRecorder$$' -fuzztime $(FUZZTIME) ./internal/metrics
	$(GO) test -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime $(FUZZTIME) ./internal/fault

# Every active //simlint:* suppression with file:line, for periodic
# audit (testdata fixtures excluded — their suppressions are the test).
lint-fix-list:
	@grep -rn '//simlint:[a-z]' --include='*.go' . \
		| grep -v '/testdata/' | grep -v '^./internal/lint/' \
		| sed 's|^\./||' || echo "no active suppressions"

vet:
	$(GO) vet ./...

# gofmt cleanliness: fails listing any file that gofmt would rewrite
# (testdata fixtures included — they are parsed Go like everything else).
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Degraded-mode smoke: the degraded-array study (reference fault plan,
# reduced 2x4 geometry) written to FAULT_TABLE. The faulted golden
# replay and the fault-lifecycle tests run under `make simcheck`. See
# docs/fault-injection.md.
FAULT_TABLE ?= fault-table.txt
fault-smoke:
	$(GO) run ./cmd/triplea-bench -experiment fault -requests 4000 \
		-switches 2 -clusters 4 | tee $(FAULT_TABLE)

# The repository benchmark (perfbench/, a module of its own; see
# perfbench/README.md and docs/performance.md) is the one speed
# yardstick. The root `go build ./...` skips nested modules, so this
# vets and tests the module against the current simulator API, then
# runs each workload on a one-second budget and fails unless its last
# line reports a correct run with no failed request. Speed itself is
# compared by alternating same-host runs, not gated here.
bench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	@for w in paper-suite gc-overwrite fault-recovery; do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 42 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$last"; \
		echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -Eq '"failed":0[,}]' \
			|| { echo "bench: $$w: not a correct run with zero failures"; exit 1; }; \
	done

check: build fmt-check vet test race simcheck
