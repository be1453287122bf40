#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <online-overload|online-wide|serve-light> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the repository.  Build output goes to stderr, so the
# last line on stdout is the benchmark's JSON result.
set -euo pipefail
dir="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
# Run the benchmark as a child of this small shell, not through `exec`:
# a process's peak-memory mark survives `execve`, so an exec'd benchmark
# would report the peak of whatever launched this script.
status=0
"${CARGO_TARGET_DIR:-$dir/target}/release/perfbench" "$@" || status=$?
exit "$status"
