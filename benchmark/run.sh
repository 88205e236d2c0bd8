#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload batch64 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write lands in .bench_build/ under the
# current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
# The go command keeps its settings and telemetry counters under the
# user config directory; keep those inside .bench_build too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/fastbfs-benchmark" .)
exec "$out/fastbfs-benchmark" "$@"
