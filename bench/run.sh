#!/bin/sh
# run.sh — build fedvalbench from source and run it. Everything the build
# and the run write (Go build cache, the binary, round scratch directories,
# trace dumps) lands under .bench_build/ in the current directory, which
# must be the repository root.
set -eu

src=$(cd "$(dirname "$0")" && pwd)
build=$(pwd)/.bench_build
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$src" && go build -o "$build/fedvalbench" .)
exec "$build/fedvalbench" "$@"
