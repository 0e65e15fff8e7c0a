#!/usr/bin/env bash
# Builds cmd/simd and the benchmark (perfbench) from the checkout this is
# run in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload replay-serial --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build caches, binaries, data
# directories, spans and profiles all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep the toolchain's caches, telemetry and temporary files inside the
# checkout, and never let it download anything.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/simd" ./cmd/simd
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -simd "$out/bin/simd" -out "$out/out" "$@"
