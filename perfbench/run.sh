#!/usr/bin/env bash
# Builds faqd (./cmd/faqd) and the perfbench command from source into
# .bench_build/, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload serve-http --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache included) stays under .bench_build/; the network is never used.
# The benchmark's self-check: (cd perfbench && go test .)
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/faqd" ]; then
	echo "perfbench: run from the repository root (no ./cmd/faqd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOPATH="$out/home/go" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export CGO_ENABLED=0
go build -o "$out/faqd" ./cmd/faqd >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -faqd "$out/faqd" "$@"
