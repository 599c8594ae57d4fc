#!/usr/bin/env bash
# Builds cmd/awdserve and the perfbench load generator from the checkout in
# the current directory, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload hover-fleet --seed 1 --seconds 20 --trace 0
#
# Every build artifact, Go cache and checkpoint stays under .bench_build in
# the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/awdserve" ]]; then
	echo "run.sh: run from the root of a repro checkout (no go.mod or cmd/awdserve here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
# With telemetry on (the default "local" mode), every go command forks a
# detached uploader that outlives this script; turn it off.
printf 'off\n' >"$out/config/go/telemetry/mode"
go build -o "$out/bin/awdserve" ./cmd/awdserve >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -awdserve "$out/bin/awdserve" -workdir "$out" "$@"
