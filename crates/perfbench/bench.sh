#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from source, then runs one
# workload:
#
#   bash crates/perfbench/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the repository root. The last line of stdout is the JSON result.
# Honours CARGO_TARGET_DIR (default: target).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "bench.sh: run from the repository root (no workspace here)" >&2
    exit 2
fi
cargo build --release --quiet --offline --manifest-path Cargo.toml -p gorder-perfbench -p gorder-serve >&2
bin_dir="${CARGO_TARGET_DIR:-target}/release"
exec "$bin_dir/gorder-perfbench" bench "$@"
