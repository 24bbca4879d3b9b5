#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it. Run from the
# repository root:
#
#   bash bench/run.sh                                  # all five workloads
#   bash bench/run.sh --workload evaluate-hot --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh -compare A1.json A2.json -- B1.json B2.json
#
# Everything the build and the runs leave behind — the Go build cache and
# config, temp files, the runner and daemon binaries, daemon logs, data dirs,
# traces and result files — stays under .bench_build (or $CARGO_TARGET_DIR
# when it is set).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gomodcache
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" -build-dir "$build" "$@"
