"""Correctness check of one run's costs.csv.

An operation is one costs.csv row the workload should emit. A row fails if

* it is missing (or the run's summary.json carries an error);
* its mean, stderr or lower_bound is not finite;
* mean - 2*stderr < lower_bound, i.e. the estimate contradicts the bound;
* the run used the workload's default seed and its mean or stderr differs
  from the reference recorded at the seed commit by more than
  ``REL_TOL * |reference| + ABS_TOL``.

Only the cost columns are compared with the reference: a change to the
bound calculation legitimately moves ``lower_bound``.

Tolerance. The same code and seed reproduce costs.csv byte for byte, so
any difference comes from changed arithmetic. Measured at seed 1 on every
workload: relaxing the logistic solver's gradient tolerance from 1e-10 to
1e-8 moved the means and standard errors by at most 1.9e-11 relative, and
tightening it to 1e-13 by at most 2.2e-13. The ridge workload's costs did
not move at all, not even with its dual tolerance at 1e-9. Two BLAS
threads instead of one changed no cost. ``REL_TOL = 1e-6`` leaves a
factor of ten thousand above the largest of these, for reordered or
batched arithmetic. It is still below the statistical resolution of
every workload: stderr/mean is at least 5e-6, on attack-wine-output. So
a cost that is off by a fraction of a standard error does not pass.
"""

import csv
import io
import json
import math
import os

__all__ = ["REL_TOL", "ABS_TOL", "failed_rows", "load_reference"]

REL_TOL = 1e-6
ABS_TOL = 1e-12

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(workload, seed, path=REFERENCE_PATH):
    """{key: (mean, stderr)} recorded for workload, or None unless seed is
    the workload's default seed, at which the reference was recorded."""
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"][workload]
    if seed != ref["seed"]:
        return None
    return {key: (float(m), float(s)) for key, (m, s) in ref["rows"].items()}


def parse_costs(text):
    """{key: (mean, stderr, lower_bound)} from costs.csv text; values that
    do not parse become NaN."""
    rows = list(csv.reader(io.StringIO(text)))
    out = {}
    for row in rows[1:]:
        if not row:
            continue
        vals = []
        for cell in row[1:4]:
            try:
                vals.append(float(cell))
            except ValueError:
                vals.append(math.nan)
        vals += [math.nan] * (3 - len(vals))
        out[row[0]] = tuple(vals)
    return out


def _close(value, ref):
    return abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL


def failed_rows(costs_text, expected_keys, error=None, reference=None):
    """List of (key, reason), one per expected row that fails."""
    if error:
        return [(key, f"run error: {error}") for key in expected_keys]
    rows = parse_costs(costs_text)
    fails = []
    for key in expected_keys:
        if key not in rows:
            fails.append((key, "missing"))
            continue
        mean, stderr, bound = rows[key]
        if not all(math.isfinite(v) for v in (mean, stderr, bound)):
            fails.append((key, "not finite"))
        elif mean - 2.0 * stderr < bound:
            fails.append((key, f"mean - 2*stderr = {mean - 2.0 * stderr!r} < lower_bound {bound!r}"))
        elif reference is not None:
            ref_mean, ref_stderr = reference[key]
            if not (_close(mean, ref_mean) and _close(stderr, ref_stderr)):
                fails.append((key, f"mean/stderr {mean!r}/{stderr!r} differ from reference {ref_mean!r}/{ref_stderr!r}"))
    return fails
