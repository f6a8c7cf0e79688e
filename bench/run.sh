#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload stream-16x --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary live under
# .bench_build/, so a run writes nothing outside the checkout except what
# the benchmark itself writes to bench-out/.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
# With telemetry on (the default mode is "local") the go command starts a
# detached sidecar process that outlives the build; turn it off so a run
# leaves no process behind.
printf 'off' > "$build/config/go/telemetry/mode"

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
