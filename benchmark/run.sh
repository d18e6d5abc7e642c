#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it there with the given arguments. The Go build cache,
# GOPATH and the go command's configuration directory live in .bench_build
# too, so nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
