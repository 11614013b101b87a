#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#	bash perfbench/run.sh --workload clip512 --seed 1 --seconds 25 --trace 0
#
# Every build artefact (binary, Go build cache, temp files, the go
# command's own config and telemetry files) stays under .bench_build/ in
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode" # no telemetry files or uploader child
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
