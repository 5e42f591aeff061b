#!/usr/bin/env bash
# Builds the binaries under test (rexec-serve, experiments) and the
# benchmark from source, then runs the benchmark with the given
# arguments. Run from the repository root:
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    --target-dir "$target" -p rexec-serve -p rexec-sweep --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    --target-dir "$target" >&2
exec "$target/release/perfbench" --bin-dir "$target/release" "$@"
