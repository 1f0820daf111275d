#!/bin/sh
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root:
#
#	sh bench/run.sh -seed 1                      # every workload
#	sh bench/run.sh --workload spot --seed 3 --seconds 16 --trace 0
#
# The build cache, the binary, Go's temporary files and the journals the
# workloads write all stay under .bench_build/ in the repository root.
set -e
root=$(pwd)
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
