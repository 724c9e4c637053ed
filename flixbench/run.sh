#!/usr/bin/env bash
# Builds flixbench (release, offline, from source) and runs it from the
# repository root.
#
#   flixbench/run.sh                        both passes of all four workloads -> target/flixbench/result.json
#   flixbench/run.sh --smoke                the same on a corpus 1/20 the size, in seconds
#   flixbench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one pass of one workload; the last line of
#                                           standard output is the result (BENCHMARK.json)
#   flixbench/run.sh compare a.json b.json  judge b against a with the catalogue's bounds
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="${CARGO_TARGET_DIR:-target/flixbench-build}"
cargo build --release --offline --quiet \
    --manifest-path flixbench/Cargo.toml --target-dir "$build" >&2
case "${1:-}" in
    compare) exec "$build/release/flixbench" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$build/release/flixbench" "$@"
    fi
done
exec "$build/release/flixbench" all "$@"
