#!/usr/bin/env bash
# Count the non-test lines of the library crates: every `.rs` file under
# `crates/*/src`, each counted up to its first column-0 `#[cfg(test)]` (the
# unit-test module that closes a file).  Integration tests, examples, the
# facade crate, the offline stand-ins under `crates/compat/` and
# `benchmark/` are not counted.
#
#   scripts/nontest_lines.sh           one total
#   scripts/nontest_lines.sh --files   one line per file, then the total
#
# Run from anywhere; the count is of the repository the script sits in.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

per_file='/^#\[cfg\(test\)\]/ { nextfile } { n[FILENAME]++ } END { for (f in n) print n[f], f }'
counts="$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk "$per_file" | sort -k2)"

if [[ "${1:-}" == "--files" ]]; then
    printf '%s\n' "$counts"
elif [[ $# -gt 0 ]]; then
    echo "usage: scripts/nontest_lines.sh [--files]" >&2
    exit 1
fi
printf '%s\n' "$counts" | awk '{ total += $1 } END { print total }'
