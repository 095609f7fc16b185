#!/usr/bin/env bash
# Builds the FETCH benchmark from the sources of the checkout it runs
# in, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload synth-corpus --seed 1 --seconds 30 --trace 0
#
# The build and the run write only under .bench_build/ in the current
# directory, and the build never downloads (the modules have no
# dependencies). Without the repository sources beside perfbench/ the
# build fails: non-zero exit, no result line.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --root "$root" "$@"
