#!/usr/bin/env bash
# Builds the perfbench runner from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload paper_sweep --seed 2007 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# the binary, the Go build cache, temporary files, the serve workloads'
# cache directories — stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
