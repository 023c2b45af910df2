#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes (Go's build cache and temporary files included) stays under
# .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build/go"
mkdir -p "$build/cache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME is where the go command keeps its env file and its
# telemetry counters.
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .) >&2
exec "$build/benchmark" -dir "$here" "$@"
