#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and replaces this
# shell with it, so the benchmark is the only process left running.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 25 --trace 0
#
# Build products, the Go build cache and the benchmark's temp stores
# all stay under .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" -root "$root" -tmp "$build/tmp" -commit "$commit" "$@"
