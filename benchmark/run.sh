#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload admit_loaded --seed 7 --seconds 12 --trace 0
#
# The build cache and the binary live in .bench_build/ at the root of the
# checkout, so nothing outside the checkout is read or written. The
# benchmark is its own module (benchmark/go.mod) that replaces `repro`
# with the checkout around it; without that checkout the build fails and
# this script exits non-zero before printing anything.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/rotabench" .) >&2
cd "$root"
exec "$build/rotabench" "$@"
