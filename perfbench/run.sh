#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root, for example:
#   bash perfbench/run.sh --workload sort --seed 1 --seconds 20 --trace 0
# The build writes only under .bench_build in the working directory, and
# fails (exit status 1, nothing on standard output) when the repository's
# sources are not there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
