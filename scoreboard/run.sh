#!/usr/bin/env bash
# Builds trustd and the scoreboard load generator from the sources of the
# checkout it is run in, then runs one workload:
#
#   bash scoreboard/run.sh --workload read_hot --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Build outputs, ledgers and trace
# files go under .bench_build/ in the checkout and nowhere else.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config/go/telemetry"
# Every cache and config the go command writes stays in the checkout. The
# build needs nothing but the standard library, so module fetches are off.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
	GOPROXY=off GOSUMDB=off
# With telemetry on, the go command starts a detached sidecar process that
# outlives the build; turning it off keeps every process this script starts
# a child that ends before the script does.
printf 'off\n' >"$out/config/go/telemetry/mode"
go build -o "$out/trustd" ./cmd/trustd
(cd scoreboard && go build -o "$out/scoreboard" .)
exec "$out/scoreboard" -root "$root" -trustd "$out/trustd" "$@"
