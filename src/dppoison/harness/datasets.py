"""Synthetic dataset generators, CSV ingestion, and evaluation-set builders.

File format for datasets: a UTF-8 CSV with a header row, feature columns
x0..x{d-1}, and a label column y (period as the decimal separator).
Classification labels may be arbitrary strings mapped to +1/-1 at load
time via a label map.
"""

import csv
import math
import os

import numpy as np

from ..core import Dataset

__all__ = [
    "gen_1d_dataset",
    "gen_2d_dataset",
    "gen_eval_grid_1d",
    "gen_eval_grid_2d",
    "load_csv_dataset",
    "save_csv_dataset",
    "write_csv",
    "normalize_dataset",
    "build_nn_eval_set",
    "pick_extreme_eval_item",
]

# Full precision: a float written and read back is the same float.
_FLOAT_FMT = "%.17g"


def _indicator_labels(mask):
    return np.where(mask, 1.0, -1.0)


def gen_1d_dataset(n, rng):
    """n scalar features uniform on [-1, 1], labeled +1 iff x >= 0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    x = rng.uniform(-1.0, 1.0, size=n)
    return Dataset(x[:, None], _indicator_labels(x >= 0.0))


def gen_2d_dataset(n, theta_star, rng):
    """n points uniform in the unit disk, labeled +1 iff x.theta_star >= 0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (2,):
        raise ValueError("theta_star must be a 2-vector")
    r = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    X = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    return Dataset(X, _indicator_labels(X @ theta_star >= 0.0))


def gen_eval_grid_1d(m=21):
    """m evenly spaced points on [-1, 1] labeled +1 iff x >= 0."""
    if m < 1:
        raise ValueError("m must be at least 1")
    x = np.linspace(-1.0, 1.0, m)
    return Dataset(x[:, None], _indicator_labels(x >= 0.0))


def gen_eval_grid_2d(side=21):
    """The side-by-side lattice on [-1, 1]^2 restricted to the closed unit
    disk, labeled by a vertical decision boundary (+1 iff x0 >= 0).

    The default side of 21 yields 317 points.
    """
    if side < 1:
        raise ValueError("side must be at least 1")
    g = np.linspace(-1.0, 1.0, side)
    a, b = np.meshgrid(g, g, indexing="ij")
    X = np.column_stack([a.ravel(), b.ravel()])
    keep = np.einsum("ij,ij->i", X, X) <= 1.0 + 1e-9
    X = X[keep]
    return Dataset(X, _indicator_labels(X[:, 0] >= 0.0))


def load_csv_dataset(path, feature_columns=None, label_column="y", label_map=None):
    """Read a dataset CSV.

    feature_columns defaults to every non-label column in file order.
    label_map translates string labels (e.g. class names) to numbers;
    without it the label column must parse as a float. Parse problems
    and non-finite values (nan, inf) raise with the offending line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        if label_column not in reader.fieldnames:
            raise ValueError(f"{path}: missing label column {label_column!r}")
        if feature_columns is None:
            feature_columns = [c for c in reader.fieldnames if c != label_column]
        else:
            missing = [c for c in feature_columns if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"{path}: missing feature columns {missing}")
        if not feature_columns:
            raise ValueError(f"{path}: no feature columns")
        rows, labels = [], []
        for line, rec in enumerate(reader, start=2):
            try:
                row = [float(rec[c]) for c in feature_columns]
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line}: bad feature value ({exc})") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{line}: non-finite feature value")
            rows.append(row)
            raw = rec[label_column]
            if label_map is not None:
                if raw not in label_map:
                    raise ValueError(f"{path}:{line}: unknown label {raw!r}")
                label = float(label_map[raw])
            else:
                try:
                    label = float(raw)
                except (TypeError, ValueError):
                    raise ValueError(f"{path}:{line}: bad label value {raw!r}") from None
            if not math.isfinite(label):
                raise ValueError(f"{path}:{line}: non-finite label {raw!r}")
            labels.append(label)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels))


def _cell(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _FLOAT_FMT % v


def write_csv(path, header, rows):
    """Write a CSV with a header row, making its directory. Integers are
    written as integers and every other cell as a float at full precision."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def save_csv_dataset(data, path):
    """Write a dataset in the x0..x{d-1},y format with full precision."""
    header = [f"x{j}" for j in range(data.dim)] + ["y"]
    write_csv(path, header, ([*x, y] for x, y in zip(data.X, data.y)))


def normalize_dataset(data, normalize_labels=False, label_range=(0.0, 10.0)):
    """Scale all features by the maximum item norm, so every feature vector
    has norm at most 1 and relative geometry is preserved.

    With normalize_labels, labels are mapped affinely from label_range
    onto [-1, 1] (the default range [0, 10] sends 5 to 0).
    """
    norms = np.linalg.norm(data.X, axis=1)
    top = float(norms.max())
    if top == 0.0:
        raise ValueError("cannot normalize: all feature vectors are zero")
    y = data.y
    if normalize_labels:
        lo, hi = label_range
        if hi <= lo:
            raise ValueError("label_range must be increasing")
        y = 2.0 * (y - lo) / (hi - lo) - 1.0
    return Dataset(data.X / top, y)


def build_nn_eval_set(data, rng, class_label=1.0, count=10, include_seed=False):
    """Evaluation set for a targeted flip: pick a random item of the given
    class, take its count nearest neighbours within that class (optionally
    including the picked item itself), and flip all their labels.

    Models scoring low on this set predict the flipped label on a small
    coherent cluster of the class.
    """
    members = np.flatnonzero(data.y == class_label)
    needed = count if include_seed else count + 1
    if len(members) < max(needed, 1):
        raise ValueError(
            f"class {class_label} has {len(members)} members, need at least {needed}"
        )
    seed_pos = int(rng.integers(len(members)))
    seed_idx = members[seed_pos]
    diffs = data.X[members] - data.X[seed_idx]
    dists = np.einsum("ij,ij->i", diffs, diffs)
    order = members[np.argsort(dists, kind="stable")]
    if not include_seed:
        order = order[order != seed_idx]
    chosen = order[:count]
    return Dataset(data.X[chosen], np.full(len(chosen), -class_label))


def pick_extreme_eval_item(data, extreme="min", target_label=1.0):
    """Single-item evaluation set: the item with the smallest (or largest)
    label, re-labeled with target_label. Used to force a prediction flip
    on an extreme example."""
    if extreme not in ("min", "max"):
        raise ValueError("extreme must be 'min' or 'max'")
    i = int(np.argmin(data.y) if extreme == "min" else np.argmax(data.y))
    return Dataset(data.X[i][None, :], np.array([float(target_label)]))
