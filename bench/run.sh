#!/usr/bin/env bash
# The benchmark's one command. Run it from the repository root.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of output is the result the driver reads.
#   bash bench/run.sh [--seed <n>] [--seconds <s>]
#       all four workloads, then the traced run of each; every report is
#       appended to bench/out/results.jsonl for bench/compare.
#
# It compiles the harness (and the harness compiles cmd/cinderellad) from
# the checkout's source into .bench_build/, with Go's caches kept there
# too, so nothing is read or written outside the checkout.
set -euo pipefail

if [ ! -f bench/go.mod ] || [ ! -f go.mod ]; then
	echo "bench/run.sh: run from the root of a full checkout (go.mod and bench/go.mod)" >&2
	exit 2
fi
root=$PWD
mkdir -p .bench_build bench/out
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$root/.bench_build/harness" .

workload=
for arg in "$@"; do
	case $arg in -workload | --workload | -workload=* | --workload=*) workload=1 ;; esac
done
if [ -n "$workload" ]; then
	exec .bench_build/harness "$@"
fi
.bench_build/harness -workload all -trace 0 "$@" | tee -a bench/out/results.jsonl
.bench_build/harness -workload all -trace 1 "$@" | tee -a bench/out/results.jsonl
