#!/usr/bin/env bash
# Builds layerbench from this checkout and runs it. Run from the
# repository root:
#
#   bash layerbench/run.sh --workload figures|serve|fleet --seed N --seconds S --trace 0|1
#
# The Go build cache, temporary files, the binary, per-run daemon
# directories and traces all stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/layerbench/go.mod" ]]; then
	echo "layerbench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# No network, no workspace or user settings, no VCS stamping (a checkout
# need not be a repository): the build sees only this tree and the
# installed toolchain.
export GOENV=off GOWORK=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
# The toolchain's standard install location, for a PATH that lacks it.
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"
if [[ -z "${LAYERBENCH_GIT_REV:-}" && -e "$root/.git" ]] && command -v git >/dev/null; then
	LAYERBENCH_GIT_REV="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
	export LAYERBENCH_GIT_REV
fi

(cd "$root/layerbench" && go build -o "$out/layerbench" .)
exec "$out/layerbench" --out "$out" "$@"
