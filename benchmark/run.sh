#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Everything the build writes (binary, Go build cache) stays
# under .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/incll-benchmark" .)
cd "$root"
exec "$out/incll-benchmark" "$@"
