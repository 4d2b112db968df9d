#!/usr/bin/env bash
# Builds caped and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload small-jobs --seed 1 --seconds 20 --trace 0
# Everything built or written stays under .bench_build/ in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/caped || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/caped and perfbench/)" >&2
	exit 2
fi
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -o "$out/caped" ./cmd/caped
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" -caped "$out/caped" -out "$out" "$@"
