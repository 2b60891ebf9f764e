#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it:
#
#   bash perfbench/run.sh --workload bulk|rpc|roam --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache, the Go
# tool's config, telemetry and temporary files all stay under .bench_build/
# in that root. Build errors go to stderr and end the script with a nonzero
# status before anything is printed on stdout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
