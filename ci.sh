#!/usr/bin/env sh
# Full local CI gate: formatting, clippy, the flixcheck static-analysis
# pass, and the test suite. Everything runs offline (dependencies are
# vendored); any failure stops the script.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== flixcheck (static analysis: text, token, and concurrency rules)"
# SARIF artifact first: --format sarif exits non-zero on findings too, so
# this both produces flixcheck.sarif and gates the build.
cargo run -q -p flixcheck -- --format sarif > flixcheck.sarif
grep -q '"version": "2.1.0"' flixcheck.sarif
grep -q '"runs"' flixcheck.sarif
# Human-readable pass for the log (also fails on any diagnostic,
# including allowlist-stale).
cargo run -q -p flixcheck

echo "== flixcheck negative smoke (seeded AB-BA deadlock must be caught)"
if cargo run -q -p flixcheck -- --root crates/flixcheck/fixtures/deadlock; then
    echo "flixcheck failed to flag the seeded deadlock fixture" >&2
    exit 1
fi

echo "== cargo test (workspace, sequential builds: FLIX_BUILD_THREADS=1)"
FLIX_BUILD_THREADS=1 cargo test -q --workspace

echo "== cargo test (workspace, parallel builds: FLIX_BUILD_THREADS=0)"
FLIX_BUILD_THREADS=0 cargo test -q --workspace

echo "== flixbench (the benchmark package builds against crates/, passes its tests, and smoke-runs)"
cargo test --offline --manifest-path flixbench/Cargo.toml
bash flixbench/run.sh --smoke

echo "== cargo bench --no-run (benches must keep compiling)"
cargo bench --no-run --workspace

echo "== repro query smoke test (observability layer end to end)"
cargo run -q -p bench --bin repro -- query --scale 0.02

echo "== repro serve smoke test (worker pool at 2 and 8 threads, 1 shard)"
cargo run -q -p bench --bin repro -- serve --scale 0.02 --serve-threads 2,8 --shards 1

echo "== repro serve smoke test (sharded serving at 4 shards)"
cargo run -q -p bench --bin repro -- serve --scale 0.02 --serve-threads 2 --shards 4

echo "== repro trace smoke test (flight recorder + Chrome trace export)"
cargo run -q -p bench --bin repro -- trace --scale 0.02
# Shape-check the artifacts: trace.json must be a Chrome trace-event file
# with duration spans and instants, BENCH_obs.json must carry the
# overhead and adaptive-admission numbers.
grep -q '"traceEvents"' trace.json
grep -q '"ph":"X"' trace.json
grep -q '"ph":"i"' trace.json
grep -q '"overhead_pct"' BENCH_obs.json
grep -q '"events_per_sec"' BENCH_obs.json
grep -q '"limit_changes"' BENCH_obs.json

echo "== repro recover smoke test (WAL, kill-point sweep, live hot swap)"
cargo run -q -p bench --bin repro -- recover --scale 0.02
# Shape-check: the sweep must report zero mismatches and the hot swap
# zero dropped/mismatched answers (the binary itself asserts the same).
grep -q '"kill_points"' BENCH_recovery.json
grep -q '"mismatches": 0' BENCH_recovery.json
grep -q '"dropped": 0' BENCH_recovery.json
grep -q '"mismatched": 0' BENCH_recovery.json
grep -q '"file_commits_per_sec"' BENCH_recovery.json

echo "CI green."
