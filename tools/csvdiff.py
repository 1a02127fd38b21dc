"""Cell-by-cell comparison of CSV files written by the harness.

    python3 tools/csvdiff.py A B

A and B are two CSV files, or two run trees (directories), whose CSV
files are paired by their path below A and B. Prints one line per moved
cell: the file, the row and column (0-based, the header is row 0), both
values and the relative change; then one summary line. Exits 0 when no
cell moved, 1 otherwise.

Cells are compared as numbers, with the relative change
|a - b| / max(|a|, |b|) (0 when both are equal). Tables that differ in
shape, or in a cell that is not a finite number, differ by inf; so does
a file that only one tree holds.
"""

import argparse
import math
import os
import sys

__all__ = ["relative_change", "cell_changes", "largest_change", "tree_changes"]


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def relative_change(a, b):
    """Relative change between two cells given as strings."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def cell_changes(path_a, path_b):
    """(row, column, a, b, relative change) of every cell that moved, in
    file order. Where the tables differ in shape the list ends with one
    entry (row, 0, None, None, inf) at the first row that does."""
    rows_a, rows_b = _read_rows(path_a), _read_rows(path_b)
    moved = []
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if len(row_a) != len(row_b):
            return moved + [(r, 0, None, None, math.inf)]
        for c, (a, b) in enumerate(zip(row_a, row_b)):
            change = relative_change(a, b)
            if change > 0.0:
                moved.append((r, c, a, b, change))
    if len(rows_a) != len(rows_b):
        moved.append((min(len(rows_a), len(rows_b)), 0, None, None, math.inf))
    return moved


def largest_change(path_a, path_b):
    """(largest relative change over the cells, (row, column) where it is,
    or None if no cell moved); inf if the tables differ in shape."""
    moved = cell_changes(path_a, path_b)
    if moved and moved[-1][2] is None:  # a shape difference outranks any cell
        return math.inf, moved[-1][:2]
    worst, where = 0.0, None
    for r, c, _, _, change in moved:
        if change > worst:
            worst, where = change, (r, c)
    return worst, where


def _csv_files(root):
    return {
        os.path.relpath(os.path.join(top, name), root)
        for top, _, names in os.walk(root)
        for name in names
        if name.endswith(".csv")
    }


def tree_changes(a, b):
    """{file: cell_changes} for two CSV files (keyed by B's name) or two
    directories (keyed by the path below them), holding only the files
    with a moved cell. A file that only one tree holds maps to
    [(0, 0, None, None, inf)]."""
    if not (os.path.isdir(a) and os.path.isdir(b)):
        moved = cell_changes(a, b)
        return {b: moved} if moved else {}
    files_a, files_b = _csv_files(a), _csv_files(b)
    out = {name: [(0, 0, None, None, math.inf)] for name in files_a ^ files_b}
    for name in sorted(files_a & files_b):
        moved = cell_changes(os.path.join(a, name), os.path.join(b, name))
        if moved:
            out[name] = moved
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", help="a CSV file or a run tree")
    p.add_argument("b", help="the CSV file or run tree to compare with")
    args = p.parse_args(argv)
    if os.path.isdir(args.a) != os.path.isdir(args.b):
        p.error("compare two files or two directories")
    changes = tree_changes(args.a, args.b)
    worst = 0.0
    for name in sorted(changes):
        for r, c, va, vb, change in changes[name]:
            if va is None:
                print(f"{name}: shape differs at row {r} (or only one side has the file)")
            else:
                print(f"{name} row {r} column {c}: {va} -> {vb} relative change {change:.3g}")
            worst = max(worst, change)
    cells = sum(len(moved) for moved in changes.values())
    print(f"{cells} cells moved in {len(changes)} files; largest relative change {worst:.3g}")
    return int(bool(changes))


if __name__ == "__main__":
    sys.exit(main())
