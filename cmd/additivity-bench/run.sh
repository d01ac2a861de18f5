#!/usr/bin/env bash
# Builds and runs additivity-bench from the repository root, keeping the
# Go build cache, Go's config and telemetry files, binaries and scratch
# files under .bench_build/ there. Arguments pass through, e.g.:
#   bash cmd/additivity-bench/run.sh -workload warm-hit -seed 1 -seconds 12 -trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/cmd/additivity-bench" && go build -o "$build/bin/additivity-bench" .)
exec "$build/bin/additivity-bench" "$@"
