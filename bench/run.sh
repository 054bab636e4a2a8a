#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain writes (build cache, work files, telemetry counters) inside
# the checkout under .bench_build/. Arguments go to the benchmark as they
# are: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

(
	cd "$root/bench"
	GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0 \
		go build -o "$build/treep-bench" .
) >&2

cd "$root"
exec "$build/treep-bench" "$@"
