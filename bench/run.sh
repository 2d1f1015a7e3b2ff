#!/bin/bash
# The command BENCHMARK.json names: build and run the benchmark from a
# checkout. Everything the Go toolchain writes — build cache, temporary
# files, telemetry counters, module cache — stays inside the checkout's
# .bench_build; cgo is off so the build needs no C compiler.
set -e
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local CGO_ENABLED=0
exec go run . "$@"
