#!/usr/bin/env bash
# Builds the e2ebench binary from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash e2ebench/run.sh --workload plan-cold --seed 1 --seconds 30 --trace 0
#
# Every build artifact and the Go build cache stay under .bench_build/ in
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" "$@"
