#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the repository
# root:
#
#   bash perfbench/run.sh --workload olap_local --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and trace files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

# The go command keeps its caches and telemetry under these directories;
# pointing them into the checkout keeps the build from writing elsewhere.
(
	cd "$root/perfbench"
	export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
	export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
	go build -o "$out/perfbench" .
) >&2
PERFBENCH_OUT=$out exec "$out/perfbench" "$@"
