#!/bin/sh
# Surface ledger: non-comment non-test LOC and public-item lines of the
# workspace sources (`crates/` without the benchmark package, `tests/` and
# `benches/`, plus `src/`), counting each file up to its first `#[cfg(test)]`,
# then the same LOC per crate (the root `src/` is the `acorn` facade).
# Printed by CI's lint job and quoted in every CHANGES.md entry; not a gate.
cd "$(dirname "$0")/.." || exit 1
find crates src -name '*.rs' \
    ! -path 'crates/bench/src/bin/benchmark/*' ! -path '*/tests/*' ! -path '*/benches/*' |
    sort | xargs awk '
        FNR == 1 {
            live = 1
            crate = FILENAME ~ /^crates\// ? FILENAME : "crates/acorn/"
            sub(/^crates\//, "", crate); sub(/\/.*/, "", crate)
        }
        /#\[cfg\(test\)\]/ { live = 0 }
        !live || /^[[:space:]]*($|\/\/)/ { next }
        { loc++; per[crate]++ }
        /^[[:space:]]*pub (const |unsafe )?(fn|struct|enum|trait|const|type|mod|use) / { items++ }
        END {
            printf "non-test LOC %d\npublic-item lines %d\n", loc, items
            for (c in per) printf "  %-10s %6d\n", c, per[c] | "sort"
        }'
