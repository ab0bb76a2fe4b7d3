#!/usr/bin/env bash
# Builds the runtime-loop benchmark from this checkout's source and runs it.
# Run from the repository root, for example:
#
#   bash loopbench/run.sh --workload steady-forward --seed 1 --seconds 24 --trace 0
#
# The benchmark is its own Go module (loopbench/go.mod) that uses the
# repository's packages through a replace directive. The build cache and
# the binary stay inside the checkout, under .bench_build/ (or
# $CARGO_TARGET_DIR when that is set).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$(pwd)/$target" ;; esac
out="$target/loopbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/loopbench" .)
exec "$out/loopbench" "$@"
