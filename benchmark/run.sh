#!/usr/bin/env bash
# Builds cmd/slimfast and the benchmark program from the checkout this is
# started in (its root must be the working directory), then runs one
# workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/slimfast" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark: run from the root of a slimfast checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/run" "$out/home"
# Keep the Go build cache, module cache and tool config inside the
# checkout, and never fetch a toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/slimfast" ./cmd/slimfast >&2
(cd benchmark && go build -o "$out/bin/benchmark" .) >&2
exec "$out/bin/benchmark" -bin "$out/bin/slimfast" -work "$out/run" "$@"
