#!/usr/bin/env bash
# The repository's end-to-end benchmark, as one command. Run it from
# the repository root; it builds the `occ` CLI and the harness from
# source, then hands every argument to the harness (see
# bench/README.md or `bench/run.sh --help`).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/occ-cli || ! -f bench/Cargo.toml ]]; then
    echo "bench/run.sh: run from the repository root (crates/occ-cli not found here)" >&2
    exit 2
fi

root=$PWD
# Both builds share CARGO_TARGET_DIR when it is set; it is resolved
# against the root because the harness is built from inside bench/.
if [[ -n ${CARGO_TARGET_DIR:-} ]]; then
    [[ $CARGO_TARGET_DIR == /* ]] || CARGO_TARGET_DIR=$root/$CARGO_TARGET_DIR
    export CARGO_TARGET_DIR
    occ=$CARGO_TARGET_DIR/release/occ
    harness=$CARGO_TARGET_DIR/release/occ-e2e
else
    occ=$root/target/release/occ
    harness=$root/target/bench/release/occ-e2e
fi

cargo build --release --offline --quiet -p occ-cli
(cd bench && cargo build --release --offline --quiet)
exec "$harness" --occ "$occ" "$@"
