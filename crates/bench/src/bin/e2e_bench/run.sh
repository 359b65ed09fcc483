#!/usr/bin/env bash
# Builds `trustmap` and `e2e_bench` from source into one target directory
# (the benchmark looks for the binary beside its own executable), then runs
# the benchmark with the arguments given. This is BENCHMARK.json's command:
#
#   bash crates/bench/src/bin/e2e_bench/run.sh --workload wire_reads --seed 1 --seconds 10 --trace 0
#
# A relative CARGO_TARGET_DIR (the driver's `.bench_build`) resolves against
# the directory this is run from, for both builds and for the exec below.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
root="$here/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin trustmap
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/e2e_bench" "$@"
