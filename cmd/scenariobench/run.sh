#!/usr/bin/env bash
# Builds the scenario benchmark from the checkout it is run in and runs
# it, passing every argument through. Run it from the repository root:
#
#   bash cmd/scenariobench/run.sh --workload online-fleet --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/cmd/scenariobench" && go build -o "$out/scenariobench" .)
exec "$out/scenariobench" "$@"
