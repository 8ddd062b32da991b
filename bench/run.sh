#!/usr/bin/env bash
# Builds espbench and espserved from this checkout, then runs espbench
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload figure8 --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and run artefact stays under
# .bench_build/ in the checkout root (the parent of this directory).
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

go build -C "$bench_dir" -o "$out/bin/" ./espbench espnuca/cmd/espserved
exec "$out/bin/espbench" -espserved "$out/bin/espserved" -out "$out/espbench" "$@"
