# Reproduction workflow targets.

GO ?= go

.PHONY: all build vet lint lint-concurrency test test-short race bench bench-smoke chaos resume-check cache-check load-check fleet-check peer-check tables artifacts examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis gate: go vet plus the project-specific analyzer suite
# — the reproducibility passes (determinism, floatcmp, fingerprint) and
# the flow-sensitive concurrency-contract passes (locksafe, ctxflow).
# CI runs this on every push and pull request.
lint: vet
	$(GO) run ./cmd/additivity-lint ./...

# Concurrency-contract gate alone: the two CFG/dataflow passes with
# the check list pinned, plus the suppression inventory (which fails on
# malformed directives or unknown check names). fleet-check and
# peer-check run this before booting replicas: a replica whose locks
# leak or whose request chains drop their context must not reach a
# fleet test.
lint-concurrency:
	$(GO) run ./cmd/additivity-lint -checks locksafe,ctxflow ./...
	$(GO) run ./cmd/additivity-lint -report-suppressions ./... >/dev/null

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector gate for the parallel experiment engine: every test —
# including the Workers=1 vs Workers=8 equivalence suite and the
# leak-checked TestMains — runs under -race, plus vet. CI runs this on
# every push and pull request.
race: vet
	$(GO) test -race ./...

# Benchmark packages: the training-kernel hot paths (ml, mat), the
# stats kernels, plus the root study/CV/cache benchmarks.
BENCH_PKGS = ./internal/ml ./internal/mat ./internal/stats .

bench:
	$(GO) test -run '^$$' -bench=. -benchmem $(BENCH_PKGS)

# One-iteration smoke run so benchmarks cannot rot; CI runs this.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x $(BENCH_PKGS)

# Fault-injection and cache property tests under the race detector:
# recoverable faults and any interrupt/resume split must leave every
# output byte-identical; above-threshold faults must degrade explicitly;
# single-flight must coalesce concurrent gathers of the same unit. The
# lint suite runs first: the determinism/fingerprint contracts those
# properties rest on are checked statically before being exercised.
# CI runs this on every push and pull request.
chaos: lint
	$(GO) test -race -run 'Fault|Chaos|Resume|Quarantine|Degrad|Journal|Robust|Wrap|Cache|Flight' \
		./internal/faults ./internal/pmc ./internal/energy ./internal/core ./internal/experiments ./internal/memo

# The robustness gates are Go tests (CI's test and race jobs run them
# with the rest of the suite); these targets run one gate alone. The
# daemon rows boot race-instrumented replicas under -race.

# SIGKILL a checkpointed study once its journal holds a unit; the
# resumed run must regenerate byte-identical tables.
resume-check:
	$(GO) test -count=1 -run 'TestSmokeChaosAndCheckpointPreserveTables' ./cmd/repro-tables

# Uncached, cold -cache-dir and warm runs render byte-identical tables,
# the warm run served from the cache.
cache-check:
	$(GO) test -count=1 -run 'TestSmokeCacheDirWarmRunByteIdentical' ./cmd/repro-tables

# One replica, cold then warm replay of the skewed trace: zero failed
# jobs, duplicates served from the cache, a warm replay that recomputes
# nothing, and a clean SIGTERM drain.
load-check:
	$(GO) test -race -count=1 -run 'TestGates/^load$$' ./cmd/additivityd

# Three replicas sharing one cache dir reproduce the baseline digest
# through a mid-trace SIGKILL and restart (zero duplicate stores,
# nonzero lease merges); a small replica under 16 players sheds with
# 429s and fails no job.
fleet-check: lint-concurrency
	$(GO) test -race -count=1 -run 'TestGates/^(shared-dir|overload)$$' ./cmd/additivityd

# Three peer-wired replicas on separate cache dirs reproduce the
# baseline digest through a mid-trace SIGKILL, with nonzero peer hits
# and zero misses on the warm replica.
peer-check: lint-concurrency
	$(GO) test -race -count=1 -run 'TestGates/^peer$$' ./cmd/additivityd

# Regenerate every paper table (plus premise, sensor and survey tables).
tables:
	$(GO) run ./cmd/repro-tables

# Write the archival artifact bundle (tables, datasets, predictor).
artifacts:
	$(GO) run ./cmd/repro-tables -artifacts artifacts

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/powermeter
	$(GO) run ./examples/appspecific
	$(GO) run ./examples/onlineselection
	$(GO) run ./examples/partitioning
	$(GO) run ./examples/dvfs
	$(GO) run ./examples/customkernel
	$(GO) run ./examples/decomposition

clean:
	rm -rf artifacts
