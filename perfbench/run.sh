#!/usr/bin/env bash
# Builds the benchmark and the servers it drives from this checkout's
# sources, then runs it. Everything the build writes (Go build cache,
# binaries) stays under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload embedded --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if ! grep -qsx 'module rbmim' go.mod; then
	echo "perfbench: no rbmim module here (go.mod missing); run from a full checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
mkdir -p "$build/bin" "$HOME" "$TMPDIR"
go build -o "$build/bin/" ./perfbench ./perfbench/ddmserver ./cmd/driftserver
exec "$build/bin/perfbench" "$@"
