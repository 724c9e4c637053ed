#!/usr/bin/env sh
# Full local CI gate: formatting, clippy, rustdoc, the test suite, the benchmark
# package and the recorded reproduction. The flixcheck static-analysis gate
# is `tests/static_analysis.rs`, which runs inside both `cargo test
# --workspace` passes below. Everything runs offline (dependencies are
# vendored); any failure stops the script.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, no dependencies, warnings are errors: no broken or private intra-doc link)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test (workspace, sequential builds: FLIX_BUILD_THREADS=1)"
FLIX_BUILD_THREADS=1 cargo test -q --workspace

echo "== cargo test (workspace, parallel builds: FLIX_BUILD_THREADS=0)"
FLIX_BUILD_THREADS=0 cargo test -q --workspace

echo "== tests/serve.rs and the flixserve unit tests ten times over (a test that races its worker or a swap shows here, not once a week)"
for _ in 1 2 3 4 5 6 7 8 9 10; do
    cargo test -q --test serve
    cargo test -q -p flixserve
done

echo "== flixbench (the benchmark package builds against crates/, is clippy-clean, passes its tests, and smoke-runs)"
cargo clippy --offline --manifest-path flixbench/Cargo.toml --all-targets -- -D warnings
cargo test --offline --manifest-path flixbench/Cargo.toml
bash flixbench/run.sh --smoke

echo "== flixbench at full scale, one second a workload, untraced and traced (every answer fingerprint pinned in flixbench/baseline.json must hold on both evaluator passes; --smoke pins none)"
for workload in linkchase labeljoin served rebuild; do
    bash flixbench/run.sh --workload "$workload" --seconds 1 > /dev/null
    bash flixbench/run.sh --workload "$workload" --seconds 1 --trace 1 > /dev/null
done
# HOPI-5000 built, persisted and recovered on a corpus its center rank was
# not sized on, and served from disk through DiskFlix, whose every miss
# completes an image with what it leaves out (no fingerprint is pinned for
# this seed)
bash flixbench/run.sh --workload labeljoin --seconds 1 --corpus-seed 1999 > /dev/null
bash flixbench/run.sh --workload rebuild --seconds 1 --corpus-seed 1999 > /dev/null

echo "== perf ledger (every committed result document parses and compares clean against itself)"
for entry in bench/ledger/*.json; do
    bash flixbench/run.sh compare "$entry" "$entry" > /dev/null
done

echo "== repro (the integrity audit at 1/50 scale and at full scale, where every HOPI cover is checked against BFS, then the recorded full-scale run: bench/repro.txt must not move)"
cargo run -q -p bench --bin repro -- --check --scale 0.02
cargo run -q --release -p bench --bin repro -- --check
cargo run -q --release -p bench --bin repro -- all > bench/repro.txt
git diff --exit-code -- bench/repro.txt

echo "== the benchmark package is untouched (a rewritten flixbench/Cargo.lock shows here)"
git diff --exit-code -- flixbench BENCHMARK.json

echo "== net line count (ROADMAP ground rules: reported per PR; test = everything under a tests/ directory, and a file's lines from the first line that begins with #[cfg(test)] on)"
count_lines() {
    find "$@" -name '*.rs' | xargs awk '
        FNR == 1 { in_test = (FILENAME ~ /(^|\/)tests\//) }
        /^[ \t]*#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else code++ }
        END { printf "%d lines = %d non-test + %d test\n", code + test, code, test }'
}
echo "workspace:   $(count_lines crates src tests examples vendor)"
echo "crates/flix: $(count_lines crates/flix)"
echo "crates/graphcore: $(count_lines crates/graphcore)"
echo "crates/ppo: $(count_lines crates/ppo)"
echo "crates/hopi: $(count_lines crates/hopi)"
echo "crates/apex: $(count_lines crates/apex)"
echo "crates/flixcheck: $(count_lines crates/flixcheck)"
echo "crates/serve: $(count_lines crates/serve)"
echo "crates/xmlgraph: $(count_lines crates/xmlgraph)"
echo "crates/obs: $(count_lines crates/obs)"
echo "crates/pagestore: $(count_lines crates/pagestore)"

echo "CI green."
