#!/usr/bin/env python3
"""Compare two `reproduce` result directories cell by cell, timings aside.

Usage: scripts/compare_results.py <parent_dir> <change_dir>

Both directories hold the CSVs `reproduce` writes under `results/`. The two
must have the same file set, and each CSV the same header, the same row
count and the same value in every cell that is not a timing. Timed cells
are those in a column whose header contains `QPS`, `TTI` or `rows/s`; the
per-method columns of the QPS/TTI summary tables (`fig9_summary`,
`fig10_summary`, `fig11_scaling`, `table4_tti`); and the `value` of a
`scorecard` row whose `target` is a QPS.

Prints one line per difference, then `differences: N`; exits 1 when N > 0.
At `ACORN_BENCH_THREADS=1 ACORN_BENCH_REPEATS=1` every untimed cell is a
pure function of `ACORN_BENCH_N`/`ACORN_BENCH_NQ`, so two runs of code
that should answer the same way must print `differences: 0`.
"""

import csv
import sys
from pathlib import Path

TIMED_MARKS = ("QPS", "TTI", "rows/s")

# Summary tables whose columns after the leading key columns are all
# per-method QPS (or TTI) figures: table name -> number of key columns.
SUMMARY_KEYS = {"fig9_summary": 1, "fig10_summary": 2, "fig11_scaling": 1, "table4_tti": 1}


def timed(name, header, row, col):
    """True when cell `col` of `row` in table `name` is a timing."""
    if any(mark in header[col] for mark in TIMED_MARKS):
        return True
    if col >= SUMMARY_KEYS.get(name, len(header)):
        return True
    if header[col] == "value" and "target" in header:
        return any(mark in row[header.index("target")] for mark in TIMED_MARKS)
    return False


def read(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def compare(parent, change):
    """Yield one message per difference between the two directories."""
    names = {p.name for p in parent.glob("*.csv")}
    other = {p.name for p in change.glob("*.csv")}
    for name in sorted(names ^ other):
        yield f"{name}: only in {parent if name in names else change}"
    for name in sorted(names & other):
        a, b = read(parent / name), read(change / name)
        if not a or not b or a[0] != b[0]:
            yield f"{name}: header {a[:1]} -> {b[:1]}"
            continue
        if len(a) != len(b):
            yield f"{name}: {len(a) - 1} rows -> {len(b) - 1}"
            continue
        header, table = a[0], name.removesuffix(".csv")
        for i, (ra, rb) in enumerate(zip(a[1:], b[1:]), start=1):
            if len(ra) != len(rb):
                yield f"{name}:{i}: {len(ra)} cells -> {len(rb)}"
                continue
            for col, (x, y) in enumerate(zip(ra, rb)):
                if x != y and not timed(table, header, ra, col):
                    yield f"{name}:{i} [{header[col]}]: {x} -> {y}"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    parent, change = Path(argv[1]), Path(argv[2])
    for d in (parent, change):
        if not d.is_dir():
            sys.exit(f"not a directory: {d}")
    n = 0
    for msg in compare(parent, change):
        print(msg)
        n += 1
    print(f"differences: {n}")
    return 1 if n else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
