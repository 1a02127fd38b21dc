"""Shared fixtures, random-instance factories, and the acceptance report.

Acceptance tests register a per-criterion verdict through record_criterion;
the terminal summary prints one PASS/FAIL line per criterion so a run's
standing is visible without scrolling through the pytest output.
"""

import os
import sys

import numpy as np
import pytest

from dppoison import (
    BaseLearner,
    CostSpec,
    Dataset,
    Goal,
    Mechanism,
    ModelParams,
    VictimSpec,
)

# the scripts under tools/ import as plain modules (csvdiff, ab_pairs, ...)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

# criterion number -> (title, passed, detail)
_ACCEPTANCE = {}


def record_criterion(num, title, passed, detail=""):
    """Register an acceptance verdict; call before asserting so a FAIL
    still shows up in the report."""
    _ACCEPTANCE[num] = (title, bool(passed), detail)
    return passed


def acceptance_mode():
    """'ci' (default) runs reduced-scale experiments; 'full' the paper-scale
    ones. Selected via the DPPOISON_ACCEPTANCE environment variable."""
    mode = os.environ.get("DPPOISON_ACCEPTANCE", "ci")
    if mode not in ("ci", "full"):
        raise RuntimeError(f"DPPOISON_ACCEPTANCE must be 'ci' or 'full', got {mode!r}")
    return mode


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section(f"acceptance criteria ({acceptance_mode()} scale)")
    for num in sorted(_ACCEPTANCE):
        title, passed, detail = _ACCEPTANCE[num]
        line = f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {title}"
        if detail:
            line += f": {detail}"
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# random problem instances


def random_classification_data(rng, n=None, d=None):
    n = int(n if n is not None else rng.integers(5, 21))
    d = int(d if d is not None else rng.integers(1, 6))
    X = rng.standard_normal((n, d))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return Dataset(X, y)


def random_regression_data(rng, n=None, d=None):
    n = int(n if n is not None else rng.integers(5, 21))
    d = int(d if d is not None else rng.integers(1, 6))
    X = rng.standard_normal((n, d))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    y = rng.uniform(-1.0, 1.0, size=n)
    return Dataset(X, y)


def random_victim(rng, base, mechanism, lam=None, rho=None):
    base = BaseLearner(base)
    lam = float(lam if lam is not None else rng.uniform(0.5, 4.0))
    if base is BaseLearner.RIDGE and rho is None:
        rho = float(rng.uniform(0.3, 2.0))
    return VictimSpec(
        mechanism=Mechanism(mechanism),
        base=base,
        lam=lam,
        epsilon=1.0,
        rho=rho,
    )


def random_cost(rng, data, base):
    """A smooth cost matched to the base learner: parameter targeting with
    a random target, or one of the label goals on a random eval subset."""
    base = BaseLearner(base)
    loss = "logistic" if base is BaseLearner.LOGISTIC else "squared"
    pick = rng.integers(3)
    if pick == 0:
        target = ModelParams(rng.standard_normal(data.dim))
        return CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=target, loss=loss)
    m = int(rng.integers(1, 6))
    X = rng.standard_normal((m, data.dim))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    if base is BaseLearner.LOGISTIC:
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    else:
        y = rng.uniform(-1.0, 1.0, size=m)
    goal = Goal.LABEL_TARGETING if pick == 1 else Goal.LABEL_AVERSION
    return CostSpec(goal=goal, eval_set=Dataset(X, y), loss=loss)


@pytest.fixture(scope="session")
def configs_dir():
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
