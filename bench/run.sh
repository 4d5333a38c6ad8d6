#!/usr/bin/env bash
# The driver's entry point: go run ./bench with the Go build cache and the
# link step's temporary files kept inside the checkout, so a run reads and
# writes nothing outside it. Arguments pass through unchanged; by hand,
# `go run ./bench ...` from the repository root is the same program.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
exec go run ./bench "$@"
