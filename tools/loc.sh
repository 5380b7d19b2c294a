#!/bin/sh
# Non-test Rust lines under crates/: every line of every `.rs` file below
# crates/*/src, minus each `#[cfg(test)]` module (the attribute line, the
# `mod … {` line and everything up to the next `}` at column 0). The
# crates' tests/ and benches/ directories lie outside src/ and are not
# counted. Run from anywhere inside the repository:
#
#     tools/loc.sh
set -eu
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { pending = 0; skipping = 0 }
    skipping { if ($0 == "}") skipping = 0; next }
    pending {
        pending = 0
        if ($0 ~ /^mod .*\{$/) { skipping = 1; next }
        count++
    }
    $0 == "#[cfg(test)]" { pending = 1; next }
    { count++ }
    END { print count + 0 }
'
