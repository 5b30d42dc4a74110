#!/usr/bin/env bash
# Counts the non-test source lines of the workspace crates.
#
# Sums the lines of every git-tracked `crates/*/src/**/*.rs` file, each
# counted up to (not including) its first `#[cfg(test)]` line that is
# directly followed by a `mod tests` line (any visibility): the in-file
# unit tests that close a module are left out, everything else —
# docs, blank lines, other `#[cfg(test)]` items — is counted. Files
# under `tests/`, `benches/` and `examples/` are not counted at all.
#
# Prints one number. Run from anywhere inside the repository:
#
#   scripts/count_nontest_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -d '' files < <(git ls-files -z -- ':(glob)crates/*/src/**/*.rs')
awk '
    FNR == 1 { total += held; held = 0; done = 0 }
    done { next }
    held && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod tests([^[:alnum:]_]|$)/ { done = 1; next }
    held { total += 1; held = 0 }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    { total += 1 }
    END { print total + held }
' "${files[@]}"
