#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash perfbench/run.sh --workload offline-emts10 --seed 1 --seconds 15 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory, so the benchmark reads and writes only inside its checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config"
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
