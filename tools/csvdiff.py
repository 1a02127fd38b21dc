"""Cell-by-cell comparison of two CSV files written by the harness.

Cells are compared as numbers, with the relative change
|a - b| / max(|a|, |b|) (0 when both are equal). Tables that differ in
shape, or in a cell that is not a finite number, differ by inf.
"""

import math

__all__ = ["relative_change", "largest_change"]


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


def largest_change(path_a, path_b):
    """(largest relative change over the cells, (row, column) where it is,
    or None if no cell moved); inf if the tables differ in shape."""
    rows_a, rows_b = _read_rows(path_a), _read_rows(path_b)
    if len(rows_a) != len(rows_b):
        return math.inf, (min(len(rows_a), len(rows_b)), 0)
    worst, where = 0.0, None
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if len(row_a) != len(row_b):
            return math.inf, (r, 0)
        for c, (a, b) in enumerate(zip(row_a, row_b)):
            change = relative_change(a, b)
            if change > worst:
                worst, where = change, (r, c)
    return worst, where
