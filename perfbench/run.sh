#!/bin/sh
# Builds the repository benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments. Run it from the root
# of the checkout:
#
#   sh perfbench/run.sh --workload small_read --seed 1 --seconds 10 --trace 0
#
# Build caches, temp files and the benchmark's replica store all stay
# under .bench_build/ in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
