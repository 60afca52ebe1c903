#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command. Run from the root of a checkout:
#
#   bash bench/run.sh --workload explain_unique --seed 1 --seconds 20 --trace 0
#
# It builds the harness into .bench_build/ (the harness builds cmd/whydbd
# there itself) and runs it. Everything go writes — build cache, module
# cache — is kept under .bench_build/ too, so a run touches nothing outside
# the checkout, and nothing is fetched: the repository has no dependencies.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -d "$root/bench/whybench" ]; then
	echo "bench/run.sh: run from the root of the checkout (the directory with BENCHMARK.json)" >&2
	exit 2
fi
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$root/.bench_build/whybench" ./whybench)
exec "$root/.bench_build/whybench" "$@"
