#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Call from the root of
# a mobbr checkout:
#
#   bash perfbench/run.sh --workload bulk-lowend-bbr20 --seed 1 --seconds 35 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout: the
# Go build cache, temporary files and the benchmark binary. The build fails, and
# the script exits non-zero without printing a result, when the directory is
# not a mobbr checkout (no ../go.mod for the module replace to resolve).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
# The grid workload archives its runs, and the archive manifest asks git for
# a version string; pointing git at a directory that does not exist makes it
# answer "no repository" at once instead of searching above the checkout.
export GIT_DIR="$out/no-git"

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
