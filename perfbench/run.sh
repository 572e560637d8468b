#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload check-prune --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare base.out new.out
#
# Everything the build writes (binary, Go build cache, Go's own config and
# telemetry files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"

(
	cd "$here"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOCACHE="$build/gocache" \
		GOPATH="$build/gopath" GOWORK=off GOFLAGS= GOTOOLCHAIN=local \
		go build -o "$build/bin/perfbench" .
) >&2

exec "$build/bin/perfbench" "$@"
