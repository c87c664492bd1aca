#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#	bash bench/run.sh --workload warm_t1 --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes (store
# directories, trace files) stay under $CARGO_TARGET_DIR, default
# .bench_build, in the current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" --workdir "$out" "$@"
