#!/usr/bin/env bash
# The repo benchmark's one command: build `repro` and `benchmark` from
# source (offline, release), then hand every argument to `benchmark`.
#
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1   one run, one JSON line (what the driver calls)
#   benchmark/run.sh --all [--seed S] [--rounds R] [--out DIR]       every workload, every metric, traced pass, report.json
#   benchmark/run.sh --smoke                                         the same at 1 round x 1 s: the quick check
#   benchmark/run.sh --compare A.json B.json                         verdict per workload x end-to-end metric
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Both builds share one target directory, so the workspace crates are
# compiled once. A relative CARGO_TARGET_DIR is relative to the
# repository root, where cargo runs.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build output goes to stderr: stdout carries only the benchmark's own.
cargo build --release --offline --quiet -p slowcc-experiments --bin repro >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
