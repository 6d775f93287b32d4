#!/usr/bin/env bash
# The benchmark's single entry point: offline release build of the
# standalone crate in this directory, then the runner with the given
# arguments (see README.md):
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
#   run.sh [--seed <n>] [--seconds <s>] [--out <dir>]                 all workloads
#   run.sh compare <a.json> <b.json>
#
# Inputs and results go under <this directory>/out unless --out says
# otherwise.
set -euo pipefail
here="$(dirname -- "${BASH_SOURCE[0]}")"
# Cargo builds into $CARGO_TARGET_DIR when set, else next to the manifest.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" >&2

# One worker wherever a product call sizes its pool from the environment.
export TC_PAR_THREADS=1
if [ "${1:-}" = compare ]; then
    exec "$target/release/tc-benchmark" "$@"
fi
exec "$target/release/tc-benchmark" --out "$here/out" "$@"
