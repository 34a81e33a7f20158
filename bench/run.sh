#!/usr/bin/env bash
# Builds the benchmark from source and runs it once. Everything the build
# and the run write — Go build cache, Go temp files, the binary, epoch
# stores, traces — stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$out/eppi-benchmark" .
exec "$out/eppi-benchmark" "$@"
