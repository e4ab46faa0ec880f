#!/usr/bin/env bash
# Builds fpserved and the perfbench command from this checkout's sources,
# then runs one benchmark workload.  Run from the repository root:
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the repository root (or $CARGO_TARGET_DIR when set): the Go build
# cache, the go command's configuration and telemetry, temporary files,
# the two binaries and the span files.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$out/config" \
  GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/fpserved" ./cmd/fpserved >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -fpserved "$out/fpserved" -out "$out" "$@"
