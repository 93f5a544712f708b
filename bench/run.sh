#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload pixel_seq --seed 1 --seconds 12 --trace 0
#
# Everything it writes goes under .bench_build/ at the root of the checkout
# (the Go build cache and the binary), which .gitignore names. bench/ is a
# module of its own that replaces the module "adavp" with the parent
# directory, so the build fails where the program's source is absent.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$bench" && go build -o "$build/adavp-bench" .)
cd "$root"
exec "$build/adavp-bench" "$@"
