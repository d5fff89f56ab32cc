#!/bin/sh
# Regenerate BENCH_core.json, the tracked benchmark trajectory of the
# analysis engine (see docs/PERF.md). Run on an otherwise idle machine;
# ns/op is hardware-dependent, allocs/op should be stable anywhere.
#
# Usage: scripts/bench_core.sh [-cpuprofile] [extra mcs-bench flags...]
#
# -cpuprofile additionally captures a pprof CPU profile of the benchmark
# run into artifacts/bench_cpu.pprof — see the "reading the profile"
# walkthrough in docs/PERF.md. Any remaining arguments pass through to
# mcs-bench (e.g. -grid 5, -compare BENCH_core.json).
set -eux

cd "$(dirname "$0")/.."

if [ "${1:-}" = "-cpuprofile" ]; then
	shift
	mkdir -p artifacts
	set -- -cpuprofile artifacts/bench_cpu.pprof "$@"
fi

# Every run also appends a dated entry (git rev, per-benchmark numbers,
# FMS examined-event and jump counters) to BENCH_trajectory.json, the
# commit-over-commit history CI uploads as an artifact.
go run ./cmd/mcs-bench -out BENCH_core.json -trajectory BENCH_trajectory.json "$@"
