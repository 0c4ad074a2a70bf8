#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload f8-mnp --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ at the checkout root. The build needs the repository's
# sources next to this directory, so run outside a checkout it fails.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
