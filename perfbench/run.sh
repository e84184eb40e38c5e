#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload sim-batch --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build and module caches, temporary
# files, the binary) goes under .bench_build/ in the repository root.
# The module has no dependencies outside the standard library and this
# repository, so nothing is fetched.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gopath" "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOTMPDIR="${build}/tmp" XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GOENV=off GOTELEMETRY=off
go -C perfbench build -o "${build}/perfbench" .
exec "${build}/perfbench" "$@"
