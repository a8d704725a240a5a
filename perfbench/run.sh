#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload guest-mix --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (the Go build cache, the binary, span logs) stays under .perfbench/ in the
# repository root; nothing is fetched over the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
