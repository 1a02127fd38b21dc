"""Base ERM solvers and the two private training mechanisms.

Provides the spherically symmetric noise sampler, a damped-Newton solver
for L2-regularized logistic regression (optionally with a linear noise
term in the objective) and its batched form for a stack of noise draws,
on one dataset or on one dataset per draw, a norm-constrained ridge
solver that returns the dual variable of the constraint, and the
mechanism dispatcher.

All solvers are pure functions of (data, noise): repeated calls return
bit-identical results. Problem sizes here are small and dense, so
direct linear algebra is used throughout.
"""

import math

import numpy as np

from .core import BaseLearner, Dataset, Mechanism, ModelParams, sigmoid, softplus

__all__ = [
    "SolverError",
    "sample_noise",
    "train_base_logistic",
    "train_base_ridge_constrained",
    "train_mechanism",
]


class SolverError(RuntimeError):
    """Raised when a solver fails to reach its tolerance. rows holds the
    indices of the failed rows of a stacked solve; None for one draw."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


# Solver tolerances, read at call time: the logistic stationarity norm,
# the Newton iteration cap and the relative width of the ridge dual bracket.
GRAD_TOL = 1e-10
MAX_ITERS = 10_000
DUAL_TOL = 1e-12


def sample_noise(dim, scale, rng):
    """Draw noise b = r * u with u uniform on the unit sphere and
    r ~ Gamma(shape=dim, scale=scale).

    This is the spherically symmetric distribution with density
    proportional to exp(-||b|| / scale); the mean norm is dim * scale.
    scale=0 is accepted as the degenerate zero-noise limit.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    r = rng.gamma(shape=dim, scale=scale)
    g = rng.standard_normal(dim)
    nrm = math.sqrt(g @ g)  # what np.linalg.norm computes, with less dispatch
    while nrm == 0.0:  # probability zero, guarded anyway
        g = rng.standard_normal(dim)
        nrm = math.sqrt(g @ g)
    return (r / nrm) * g


def _logistic_objective(theta, X, y, lam, b):
    """The objective at theta and the margins t = y * (X theta) it used,
    which the solver's next iteration reads."""
    t = y * (X @ theta)
    return float(np.sum(softplus(-t)) + 0.5 * lam * (theta @ theta) + b @ theta), t


def _logistic_objective_rows(theta, t, lam, B):
    """_logistic_objective of each row of theta with its row of B, given
    the (m, n) margins t of the rows: the (m,) objectives."""
    return (
        np.sum(softplus(-t), axis=1)
        + 0.5 * lam * np.einsum("ij,ij->i", theta, theta)
        + np.einsum("ij,ij->i", B, theta)
    )


def _row_products(X, y, m):
    """The three data products of the batched Newton, as functions: the
    (m, n) margins y * (X theta) of an (m, d) theta, the (m, d) data term
    q @ X of an (m, n) q, and the (m, d, d) Hessian data term
    sum_j w_j x_j x_j' of an (m, n) w.

    X is (n, d) with y (n,), shared by every row, or (m, n, d) with y
    (m, n), one dataset per row. Shared data keeps plain matrix products,
    which are several times faster than per-row stacked ones."""
    d = X.shape[-1]
    # rows of outer products x_j x_j', so every Hessian is one weighted sum
    outer = (X[..., :, None] * X[..., None, :]).reshape(*X.shape[:-1], d * d)
    if X.ndim == 2:
        return (
            lambda theta: (theta @ X.T) * y,
            lambda q: q @ X,
            lambda w: (w @ outer).reshape(m, d, d),
        )
    return (
        lambda theta: (X @ theta[:, :, None])[:, :, 0] * y,
        lambda q: (q[:, None, :] @ X)[:, 0, :],
        lambda w: (w[:, None, :] @ outer).reshape(m, d, d),
    )


def _solve_logistic(X, y, lam, b, warm_start=None):
    """Damped Newton on the perturbed logistic objective.

    Newton directions are backtracked against the objective; if a direction
    stalls, a scaled gradient step is tried before giving up. The objective
    is lam-strongly convex, so this converges for any starting point.
    """
    n, d = X.shape
    if warm_start is not None:
        theta = np.array(warm_start, dtype=float)
    else:
        theta = np.zeros(d)
    eye = np.eye(d)
    f0, t = _logistic_objective(theta, X, y, lam, b)
    for _ in range(MAX_ITERS):
        p = sigmoid(-t)  # 1 / (1 + exp(t_j))
        grad = lam * theta - X.T @ (y * p) + b
        if np.linalg.norm(grad) <= GRAD_TOL:
            return theta
        w = p * (1.0 - p)
        H = lam * eye + X.T @ (X * w[:, None])
        step = np.linalg.solve(H, grad)
        # Near the optimum the predicted decrease drops below the rounding
        # resolution of the objective; without this slack the line search
        # rejects steps on floating-point noise and the iteration stalls.
        f_slack = 1e-12 * max(1.0, abs(f0))
        accepted = False
        for direction in (step, grad / (lam + n)):
            slope = float(grad @ direction)
            size = 1.0
            for _ in range(60):
                cand = theta - size * direction
                f_cand, t_cand = _logistic_objective(cand, X, y, lam, b)
                if f_cand <= f0 - 1e-4 * size * slope + f_slack:
                    theta, f0, t = cand, f_cand, t_cand
                    accepted = True
                    break
                size *= 0.5
            if accepted:
                break
        if not accepted:
            raise SolverError("logistic solver stalled: no descent step found")
    raise SolverError(f"logistic solver did not converge within {MAX_ITERS} iterations")


def _solve_logistic_rows(X, y, lam, B, warm_start=None):
    """_solve_logistic's damped Newton run on all rows of the (m, d) noise
    stack B at once; returns the (m, d) solutions, one per row.

    X is (n, d) with y (n,), the data of every row, or (m, n, d) with y
    (m, n), each row's own data. warm_start is None (zero), one (d,) start
    for every row or an (m, d) stack, one per row. Each row follows the
    scalar rules: its own gradient test, the Armijo test with the same
    slack, the gradient-step fallback, and a SolverError naming the failed
    rows if some stall or are unconverged after MAX_ITERS. Shapes stay
    (m, ...) throughout; a converged row is frozen by a mask, and each row
    carries its accepted objective value and margins forward.
    """
    m, d = B.shape
    n = X.shape[-2]
    theta = np.zeros((m, d))
    if warm_start is not None:
        theta += np.asarray(warm_start, dtype=float)
    margins, data_grad, hessian = _row_products(X, y, m)
    eye = np.eye(d)
    t = margins(theta)
    f = _logistic_objective_rows(theta, t, lam, B)
    active = np.ones(m, dtype=bool)
    for _ in range(MAX_ITERS):
        p = sigmoid(-t)
        grad = lam * theta - data_grad(p * y) + B
        # written as a negation so that a row with a nan gradient stays
        # active and stalls, as the scalar solver does
        active &= ~(np.linalg.norm(grad, axis=1) <= GRAD_TOL)
        if not active.any():
            return theta
        H = lam * eye + hessian(p * (1.0 - p))
        step = np.linalg.solve(H, grad[:, :, None])[:, :, 0]
        f_slack = 1e-12 * np.maximum(1.0, np.abs(f))
        pending = active.copy()
        for direction in (step, grad / (lam + n)):
            slope = np.einsum("ij,ij->i", grad, direction)
            size = 1.0
            for _ in range(60):
                cand = theta - size * direction
                t_cand = margins(cand)
                f_cand = _logistic_objective_rows(cand, t_cand, lam, B)
                ok = pending & (f_cand <= f - 1e-4 * size * slope + f_slack)
                theta[ok] = cand[ok]
                f[ok] = f_cand[ok]
                t[ok] = t_cand[ok]
                pending &= ~ok
                if not pending.any():
                    break
                size *= 0.5
            if not pending.any():
                break
        if pending.any():
            stalled = np.flatnonzero(pending)
            raise SolverError("logistic solver stalled: no descent step found", stalled)
    raise SolverError(
        f"logistic solver did not converge within {MAX_ITERS} iterations", np.flatnonzero(active)
    )


def _check_classification_labels(y):
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("classification labels must be -1 or +1")


def _as_noise(b, dim):
    """b as floats: one (dim,) draw or an (m, dim) stack of draws; None is
    one all-zero draw."""
    b = np.zeros(dim) if b is None else np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[-1] != dim:
        raise ValueError("noise dimension does not match the dataset")
    return b


def train_base_logistic(data, lam, b=None, *, warm_start=None):
    """Fit L2-regularized logistic regression, optionally with the linear
    noise term b.theta added to the objective (b=None is the noiseless
    base learner). The returned theta satisfies the stationarity condition

        lam*theta - sum_j y_j x_j / (1 + exp(y_j theta.x_j)) + b = 0

    within GRAD_TOL.

    b is one (d,) draw, which returns one ModelParams, or an (m, d) stack
    of draws, which returns a list of m, one per row. data is one Dataset,
    or a sequence of m datasets of one shape, one per row of a stack.
    warm_start is a ModelParams, or one per row. A stack is solved by one
    batched damped Newton; a single draw uses the scalar solver, which is
    faster for one row."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if isinstance(data, Dataset):
        X, y = data.X, data.y
    else:
        X, y = np.stack([ds.X for ds in data]), np.stack([ds.y for ds in data])
    _check_classification_labels(y)
    b = _as_noise(b, X.shape[-1])
    if X.ndim == 3 and b.shape != X.shape[::2]:
        raise ValueError("a sequence of m datasets needs an (m, d) noise stack")
    warm = warm_start
    if isinstance(warm, ModelParams):
        warm = warm.theta
    elif warm is not None:
        warm = np.array([model.theta for model in warm])
    if b.ndim == 1:
        return ModelParams(_solve_logistic(X, y, lam, b, warm), 0.0)
    thetas = _solve_logistic_rows(X, y, lam, b, warm)
    return [ModelParams(theta, 0.0) for theta in thetas]


def _ridge_dual(evals, Q, rhs, lam, rho):
    """theta and the dual mu of the active constraint ||theta|| <= rho, by
    bisection on the strictly decreasing map mu -> ||theta(mu)||, O(d) per
    evaluation in the eigenbasis (evals, Q) of X'X."""
    c = Q.T @ rhs

    def norm_at(mu):
        z = c / (evals + lam + mu)
        return math.sqrt(z @ z)  # what np.linalg.norm computes for a vector

    lo, hi = 0.0, max(1.0, lam)
    for _ in range(500):
        if norm_at(hi) <= rho:
            break
        hi *= 2.0
    else:
        raise SolverError("could not bracket the constraint dual")
    for _ in range(300):
        if hi - lo <= DUAL_TOL * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > rho:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    return Q @ (c / (evals + lam + mu)), mu


def train_base_ridge_constrained(data, lam, rho, b=None):
    """Solve norm-constrained ridge regression, optionally with a linear
    noise term b.theta in the objective (b=None gives the base learner).

    Returns theta and the dual mu of the constraint ||theta|| <= rho,
    satisfying (X'X + (lam+mu)I) theta = X'y - b with mu >= 0 and
    complementary slackness. The unconstrained solution is used whenever
    it is feasible (mu = 0 exactly); otherwise mu is found by bisection.

    b is one (d,) draw, which returns one ModelParams, or an (m, d) stack
    of draws, which returns a list of m, one per row. X'X and X'y are the
    dataset's cached ones (Dataset.gram). A stack decomposes X'X once if
    any row's constraint is active; each row keeps its own solve and
    bisection, so row i is bit for bit the single-draw solve of b[i].
    """
    if lam <= 0 or rho <= 0:
        raise ValueError("lam and rho must be positive")
    b = _as_noise(b, data.dim)
    A, Xty = data.gram
    regularized = A + lam * np.eye(data.dim)
    eig = None
    models = []
    for row in b.reshape(-1, data.dim):
        rhs = Xty - row
        theta, mu = np.linalg.solve(regularized, rhs), 0.0
        if np.linalg.norm(theta) > rho:
            eig = np.linalg.eigh(A) if eig is None else eig
            theta, mu = _ridge_dual(*eig, rhs, lam, rho)
        models.append(ModelParams(theta, mu))
    return models[0] if b.ndim == 1 else models


def train_mechanism(victim, data, b, *, warm_start=None):
    """Train the victim's private learner on data with noise draw b.

    Objective perturbation adds b.theta to the training objective; output
    perturbation trains the base learner and adds b to the result (so the
    norm constraint of a ridge victim applies to theta - b). Deterministic
    given (data, b).

    b is one (d,) draw, which returns one ModelParams, or an (m, d) stack
    of draws, which returns a list of m, one per row. data is one Dataset,
    or, for an objective-perturbation logistic victim, a sequence of m
    datasets, one per row of a stack; warm_start is a ModelParams, or one
    per dataset of a sequence. Output perturbation solves the noiseless
    base learner of one dataset from a cold start once (Dataset.cached),
    so the blocks of a Monte-Carlo estimate share it."""
    if isinstance(data, Dataset):
        b = _as_noise(b, data.dim)
    elif victim.mechanism is not Mechanism.OBJECTIVE or victim.base is not BaseLearner.LOGISTIC:
        raise ValueError("a sequence of datasets needs an objective-perturbation logistic victim")
    if victim.mechanism is Mechanism.OBJECTIVE:
        return _train_base(victim, data, b, warm_start)
    if warm_start is None:
        key = ("base", victim.base, victim.lam, victim.rho)
        model = data.cached(key, lambda: _train_base(victim, data, None, None))
    else:
        model = _train_base(victim, data, None, warm_start)
    if b.ndim == 1:
        return ModelParams(model.theta + b, model.mu)
    return [ModelParams(theta, model.mu) for theta in model.theta + b]


def _train_base(victim, data, b, warm_start):
    if victim.base is BaseLearner.LOGISTIC:
        return train_base_logistic(data, victim.lam, b, warm_start=warm_start)
    return train_base_ridge_constrained(data, victim.lam, victim.rho, b)
