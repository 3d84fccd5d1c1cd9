#!/usr/bin/env bash
# Builds the tmcheck benchmark from the source in this checkout and runs
# it with the given arguments, e.g.
#
#   bash tmbench/run.sh --workload safety-mat --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary build
# files, the binary, snapshots and trace files all stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
mkdir -p "$GOTMPDIR"

if ! (cd "$bench" && go build -o "$out/tmbench" .) >&2; then
	echo "tmbench: build failed" >&2
	exit 1
fi
if [ -z "${TMBENCH_COMMIT:-}" ] && git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	TMBENCH_COMMIT="$(git -C "$root" rev-parse HEAD)"
	export TMBENCH_COMMIT
fi
exec "$out/tmbench" --dir "$out" "$@"
