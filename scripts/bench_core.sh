#!/bin/sh
# Regenerate BENCH_core.json, the tracked micro-benchmark record of the
# analysis engine (see docs/PERF.md). Run on an otherwise idle machine;
# ns/op is hardware-dependent and only a record, while allocs/op and the
# FMS event counters (fmsEvents) should reproduce anywhere.
#
# Usage: scripts/bench_core.sh [-cpuprofile] [extra mcs-bench flags...]
#
# -cpuprofile additionally captures a pprof CPU profile of the benchmark
# run into artifacts/bench_cpu.pprof — see the "reading the profile"
# walkthrough in docs/PERF.md. Any remaining arguments pass through to
# mcs-bench (e.g. -grid 5). `-compare BENCH_core.json` gates the fresh
# run against the checked-in document before overwriting it: it fails on
# any allocs/op or fmsEvents increase and only logs ns/op drift.
set -eux

cd "$(dirname "$0")/.."

if [ "${1:-}" = "-cpuprofile" ]; then
	shift
	mkdir -p artifacts
	set -- -cpuprofile artifacts/bench_cpu.pprof "$@"
fi

go run ./cmd/mcs-bench -out BENCH_core.json "$@"
