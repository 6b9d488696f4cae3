#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash perfbench/run.sh compare PARENT.jsonl CHANGE.jsonl
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build (or $CARGO_TARGET_DIR) at the repository root. The
# build fails, and nothing is run, when the repository sources beside
# perfbench/ are missing.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"

# XDG_CONFIG_HOME keeps the go command's config and telemetry counters
# inside the build directory too.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
if [ "${1:-}" = compare ]; then
	exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" -build-dir "$build" "$@"
