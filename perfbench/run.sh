#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload. Every build artifact and scratch file goes under
# .bench_build at the checkout root.
#
#   bash perfbench/run.sh --workload single-s8 --seed 1 --seconds 25 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# XDG_CONFIG_HOME points the go command's configuration into the
# checkout, where telemetry is off: no counter files, no upload process.
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
