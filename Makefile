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
# malformed directives or unknown check names). The fleet/peer check
# scripts run this before booting replicas: a replica whose locks leak
# or whose request chains drop their context must not reach a fleet
# test.
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

# Kill a checkpointed study mid-run (SIGKILL) and assert the resumed run
# regenerates byte-identical tables. CI runs this.
resume-check:
	bash scripts/resume_check.sh

# Run repro-tables twice against one -cache-dir and assert the warm run
# renders byte-identical tables while serving from the cache. CI runs
# this.
cache-check:
	bash scripts/cache_check.sh

# Boot a race-instrumented additivityd, replay a short skewed trace
# against it with additivity-load (cold, then warm), and require zero
# failed jobs, duplicates served from the shared cache without
# recomputation (the warm replay must add zero cache misses), a clean
# SIGTERM drain, and the hot-path allocation budgets (zero-alloc warm
# lookup, batched gather plan). CI runs this.
load-check:
	bash scripts/load_check.sh

# Fleet resilience gate: one baseline daemon records a results digest
# for a 200-job skewed trace; three race-instrumented replicas sharing
# one cache directory then replay the same trace while one replica is
# SIGKILLed mid-trace and restarted — the digest must match byte for
# byte with zero duplicate stores and nonzero cross-process lease
# merges; finally a small replica (-max-jobs 4 -max-queue 2) under 16
# players must shed with 429s while holding the accepted-request p99
# within 2x an uncontended run. CI runs this.
fleet-check:
	bash scripts/fleet_check.sh

# Peer cache protocol gate: one baseline daemon records a results
# digest and leaves its cache directory warm; three race-instrumented
# replicas with SEPARATE cache directories, wired with -peers, then
# replay the same trace — one replica rebooted over the warm directory,
# the other two cold and reachable only over the peer wire — while one
# cold replica is SIGKILLed mid-trace. The digest must match byte for
# byte with nonzero peer hits and zero cache misses on the warm
# replica. CI runs this.
peer-check:
	bash scripts/peer_check.sh

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
