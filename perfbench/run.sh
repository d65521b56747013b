#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload cold-greedy --seed 1 --seconds 30 --trace 0
#
# Every build and run artefact (Go build cache, binary, scratch stores, span
# files) stays under .bench_build/ at the checkout root. Without the mapper's
# sources next to perfbench/ the build fails and the script exits non-zero.
# Inside a git checkout the binary is stamped with the commit it was built
# from, which --record requires.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=
export GOPROXY=off GOTOOLCHAIN=local

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
