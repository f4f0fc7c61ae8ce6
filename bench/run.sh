#!/usr/bin/env bash
# Builds graphbench from source and runs it with the given arguments.
# Everything the build and the run write (build cache, temporary and
# data directories) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export TMPDIR="$build/tmp"
# With a fresh config directory the go command would start a detached
# telemetry child that outlives a quick (failed) build; switch it off so
# no process is left behind when this script exits.
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	go build -o "$build/graphbench" ./bench
# The build is not VCS-stamped (a checkout need not be a repository), so
# the commit reaches the summary files through the environment.
GRAPHBENCH_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export GRAPHBENCH_COMMIT
exec "$build/graphbench" "$@"
