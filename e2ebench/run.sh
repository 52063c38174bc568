#!/usr/bin/env bash
# Builds goalrecd and the benchmark program (e2ebench) from the checkout,
# then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload recommend-mix --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
if [ ! -f go.mod ] || [ ! -d cmd/goalrecd ]; then
	echo "e2ebench: run from the root of a goalrec checkout (no go.mod or cmd/goalrecd here)" >&2
	exit 1
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config"
# With telemetry on, every go command starts a detached upload process that
# can outlive the benchmark; "go telemetry off" itself starts none.
go telemetry off
go build -o "$out/goalrecd" ./cmd/goalrecd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -goalrecd "$out/goalrecd" -work "$out" "$@"
