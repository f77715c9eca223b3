#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--seed S] [--seconds N]       every workload, timed then traced
#   benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
#                                                   one run; last stdout line is the record
#   benchmark/run.sh --self-check                   A/A: the timed suite twice, compared
#   benchmark/run.sh --sensitivity                  a 10 % injected slowdown must be caught
#
# Always builds the working tree first (never a stale binary), offline, into
# $CARGO_TARGET_DIR or benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The benchmark must measure what `cargo build --release` at the root gives
# users.  This package is its own workspace, so a [profile.release] added to
# the root manifest would not reach it: refuse to run until it is mirrored.
profile_release() {
    awk '/^\[/{on = ($0 == "[profile.release]")} on && !/^[[:space:]]*(#|$)/' "$1"
}
if [[ -f "$root/Cargo.toml" ]] &&
    [[ "$(profile_release "$root/Cargo.toml")" != "$(profile_release "$here/Cargo.toml")" ]]; then
    echo "benchmark/Cargo.toml does not mirror the root manifest's [profile.release]:" >&2
    diff <(profile_release "$root/Cargo.toml") <(profile_release "$here/Cargo.toml") >&2 || true
    exit 1
fi

cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

exec "${CARGO_TARGET_DIR:-$here/target}/release/pbe-benchmark" "$@"
