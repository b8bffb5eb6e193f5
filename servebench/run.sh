#!/usr/bin/env bash
# Builds cmd/serve and the benchmark binary from the checkout this script
# sits in, then runs the benchmark with the given arguments:
#
#   bash servebench/run.sh --workload rewrite-hot --seed 1 --seconds 35 --trace 0
#   bash servebench/run.sh --summarize
#
# Run it from the repository root. Every build output, the Go build
# cache and the per-run scratch files live under .bench_build/ so a run
# writes nothing outside the checkout. See servebench/README.md.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/servebench/go.mod" ]]; then
	echo "run.sh: run from the repository root (servebench/go.mod not found)" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serve" ]]; then
	echo "run.sh: $root holds no regexrw module to build cmd/serve from" >&2
	exit 2
fi
out="$root/.bench_build/servebench"
mkdir -p "$out/tmp"
# The go command's cache, temporary files, module path and config
# (telemetry included) all stay inside the checkout; nothing is fetched.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/serve" ./cmd/serve
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" --root "$root" --serve-bin "$out/serve" "$@"
