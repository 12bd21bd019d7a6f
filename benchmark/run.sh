#!/usr/bin/env bash
# The repo benchmark: build the benchmark crate, then run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
#       one run of one workload; the last line of stdout is the result object
#   benchmark/run.sh [--seed N] [--seconds N] [--quick]
#       the whole suite, one child process per run, results under benchmark/out/
#   benchmark/run.sh --aa [--seed N]
#       the untraced suite twice on one build, held to the benchmark's bounds
#
# All dependencies are path crates of this repository (vendor/), so the build
# needs no network. The build goes to CARGO_TARGET_DIR when the caller sets
# it, else to benchmark/target. In a directory that does not hold the
# repository the path dependencies are missing: the build fails and this
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/dcnn-benchmark" --out "$here/out" "$@"
