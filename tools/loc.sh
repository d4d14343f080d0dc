#!/usr/bin/env bash
# Line counts of the Rust sources under crates/*/src, counted the way the
# ROADMAP counts them:
#   non-test  every line before a file's test module (its first
#             unindented `#[cfg(test)]` followed by a `mod` line);
#   code      the non-test lines that are neither blank nor `//` comments.
# Prints one row per file, one per crate, then the total. Arguments narrow
# the count to the files under the given paths (relative to the repo root).
#
#   tools/loc.sh
#   tools/loc.sh crates/core/src/search crates/engine/src
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- crates/*/src
fi
find "$@" -name '*.rs' | sort | xargs awk '
    function flush() {
        if (file == "") return
        printf "%-48s %9d %9d\n", file, nontest, code
        split(file, part, "/")
        crate_nontest[part[2]] += nontest
        crate_code[part[2]] += code
        total_nontest += nontest
        total_code += code
    }
    BEGIN { printf "%-48s %9s %9s\n", "file", "non-test", "code" }
    function count(line) {
        nontest++
        if (line !~ /^[[:space:]]*(\/\/|$)/) code++
    }
    FNR == 1 { flush(); file = FILENAME; nontest = 0; code = 0; in_test = 0; held = 0 }
    in_test { next }
    held {
        held = 0
        if ($0 ~ /^(pub(\([a-z]+\))? )?mod /) { in_test = 1; next }
        count(attr)
    }
    /^#\[cfg\(test\)\]/ { held = 1; attr = $0; next }
    { count($0) }
    END {
        flush()
        printf "\n%-48s %9s %9s\n", "crate", "non-test", "code"
        for (c in crate_nontest) printf "%-48s %9d %9d\n", c, crate_nontest[c], crate_code[c] | "sort"
        close("sort")
        printf "%-48s %9d %9d\n", "total", total_nontest, total_code
    }'
