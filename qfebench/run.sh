#!/usr/bin/env bash
# Builds the benchmark program and the qfe-server/qfe-router binaries it
# measures from this checkout, then runs one workload:
#
#   bash qfebench/run.sh --workload winnow|paper|service --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included), no module is downloaded, and no process
# it starts outlives it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0

cd "$root"
# The go command otherwise forks a telemetry sidecar that outlives it; with
# the mode set to off in the private config dir, no go command here forks one.
go telemetry off
go build -o "$out/bin/qfe-server" ./cmd/qfe-server
go build -o "$out/bin/qfe-router" ./cmd/qfe-router
(cd "$root/qfebench" && go build -o "$out/bin/qfebench" .)

exec "$out/bin/qfebench" --bin "$out/bin" --work "$out/run" "$@"
