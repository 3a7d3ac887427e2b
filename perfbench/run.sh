#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hit-stream --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the per-run result files all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Keep every toolchain write inside the checkout: build cache, module
# cache, and the config directory the go command keeps telemetry in.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
export PERFBENCH_OUT="$out"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
