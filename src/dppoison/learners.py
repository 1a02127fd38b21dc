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

from .core import BaseLearner, Dataset, Mechanism, ModelParams, Positive, _checked, sigmoid

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


# Solver tolerances, read at call time: the logistic stationarity norm, the
# Newton iteration cap and the relative size of the ridge dual's last step.
GRAD_TOL = 1e-10
MAX_ITERS = 10_000
DUAL_TOL = 1e-12


def sample_noise(dim, scale, rng):
    """Draw noise b = r * u with u uniform on the unit sphere and
    r ~ Gamma(shape=dim, scale=scale).

    This is the spherically symmetric distribution with density
    proportional to exp(-||b|| / scale); the mean norm is dim * scale.
    scale=0 is accepted as the degenerate zero-noise limit; a scale that
    is negative, infinite or nan is refused.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if not 0.0 <= scale < math.inf:
        raise ValueError(f"scale must be finite and nonnegative, got {scale!r}")
    r = rng.gamma(shape=dim, scale=scale)
    g = rng.standard_normal(dim)
    nrm = math.sqrt(g @ g)  # what np.linalg.norm computes, with less dispatch
    while nrm == 0.0:  # probability zero, guarded anyway
        g = rng.standard_normal(dim)
        nrm = math.sqrt(g @ g)
    return (r / nrm) * g


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

    Each Newton step d = H^-1 g is backtracked on the merit function
    ||g||^2 of the stationarity equations (Nocedal & Wright 2006, sec.
    11.2): theta - s d is accepted once its ||g||^2 is at most
    (1 - 2e-4 s) ||g(theta)||^2, halving s up to 60 times. H >= lam I, so
    d descends that merit function from any start, and the test reads only
    the gradient the next iteration needs anyway.
    """
    theta = np.zeros(X.shape[1]) if warm_start is None else np.array(warm_start, dtype=float)
    eye = np.eye(X.shape[1])

    def gradient(theta):
        p = sigmoid(-y * (X @ theta))  # 1 / (1 + exp(y_j theta.x_j))
        g = lam * theta - X.T @ (y * p) + b
        return p, g, g @ g

    p, g, gg = gradient(theta)
    for _ in range(MAX_ITERS):
        if math.sqrt(gg) <= GRAD_TOL:  # np.linalg.norm(g), with less dispatch
            return theta
        step = np.linalg.solve(lam * eye + X.T @ (X * (p * (1.0 - p))[:, None]), g)
        size = 1.0
        for _ in range(60):
            cand = theta - size * step
            p_cand, g_cand, gg_cand = gradient(cand)
            if gg_cand <= (1.0 - 2e-4 * size) * gg:
                break
            size *= 0.5
        else:
            raise SolverError("logistic solver stalled: no descent step found")
        theta, p, g, gg = cand, p_cand, g_cand, gg_cand
    raise SolverError(f"logistic solver did not converge within {MAX_ITERS} iterations")


def _solve_logistic_rows(X, y, lam, B, warm_start=None):
    """_solve_logistic's damped Newton run on all rows of the (m, d) noise
    stack B at once; returns the (m, d) solutions, one per row.

    X is (n, d) with y (n,), the data of every row, or (m, n, d) with y
    (m, n), each row's own data. warm_start is None (zero), one (d,) start
    for every row or an (m, d) stack, one per row. Each row follows the
    scalar rules: its own gradient test, its own backtracking on ||g||^2,
    and a SolverError naming the failed rows if some stall or are
    unconverged after MAX_ITERS. Shapes stay (m, ...) throughout; a
    converged row is frozen by a mask, and each row carries its accepted
    point's gradient forward.
    """
    m, d = B.shape
    theta = np.zeros((m, d))
    if warm_start is not None:
        theta += np.asarray(warm_start, dtype=float)
    margins, data_grad, hessian = _row_products(X, y, m)
    eye = np.eye(d)

    def gradient(theta):
        p = sigmoid(-margins(theta))
        g = lam * theta - data_grad(p * y) + B
        return p, g, np.sum(g * g, axis=1)  # the squares np.linalg.norm sums

    p, g, gg = gradient(theta)
    active = np.ones(m, dtype=bool)
    for _ in range(MAX_ITERS):
        # written as a negation so that a row with a nan gradient stays
        # active and stalls, as the scalar solver does
        active &= ~(np.sqrt(gg) <= GRAD_TOL)
        if not active.any():
            return theta
        step = np.linalg.solve(lam * eye + hessian(p * (1.0 - p)), g[:, :, None])[:, :, 0]
        pending = active.copy()
        size = 1.0
        for _ in range(60):
            cand = theta - size * step
            p_cand, g_cand, gg_cand = gradient(cand)
            ok = pending & (gg_cand <= (1.0 - 2e-4 * size) * gg)
            theta[ok], p[ok], g[ok], gg[ok] = cand[ok], p_cand[ok], g_cand[ok], gg_cand[ok]
            pending &= ~ok
            if not pending.any():
                break
            size *= 0.5
        else:
            raise SolverError("logistic solver stalled: no descent step found", np.flatnonzero(pending))
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

    b is one (d,) draw, which returns one model, or an (m, d) stack of
    draws, which returns a stack of m (one ModelParams). data is one
    Dataset, or the (features, labels) arrays of m datasets, (m, n, d)
    and (m, n), one per row of a stack. warm_start is one model, or a
    stack of one per row. A stack is solved by one batched damped Newton;
    a single draw uses the scalar solver, which is faster for one row.

    Without a warm start, a solve on one Dataset starts at the linear
    response theta0 - H0^-1 b of the noiseless model theta0, solved from
    zero, with H0 its Hessian; both are cached per (dataset, lam), so a
    noiseless solve returns theta0 itself. Stacked datasets without a
    warm start start at zero."""
    return _logistic(data, _checked("lam", lam, Positive), b, warm_start)


def _logistic(data, lam, b, warm_start):  # train_base_logistic, with lam already checked
    X, y = (data.X, data.y) if isinstance(data, Dataset) else data
    _check_classification_labels(y)
    b = _as_noise(b, X.shape[-1])
    if not isinstance(data, Dataset) and (X.ndim != 3 or b.shape != X.shape[::2]):
        raise ValueError("the (m, n, d) features of m datasets need an (m, d) noise stack")
    warm = None if warm_start is None else warm_start.theta
    if warm is None and X.ndim == 2:
        theta0, H0 = data.cached(("logistic", lam), lambda: _noiseless_logistic(X, y, lam))
        warm = theta0 - np.linalg.solve(H0, b.T).T
    solve = _solve_logistic if b.ndim == 1 else _solve_logistic_rows
    return ModelParams(solve(X, y, lam, b, warm), 0.0)


def _noiseless_logistic(X, y, lam):
    """theta0, the noiseless logistic solve from zero, and the Hessian H0
    of the objective at theta0."""
    theta = _solve_logistic(X, y, lam, np.zeros(X.shape[1]))
    p = sigmoid(-y * (X @ theta))
    return theta, lam * np.eye(len(theta)) + X.T @ (X * (p * (1.0 - p))[:, None])


def _ridge_dual(evals, c, lam, rho):
    """The dual mu of the active constraint ||theta|| <= rho, where theta =
    Q z(mu), z(mu) = c / (evals + lam + mu), in the eigenbasis (evals, Q) of
    X'X: Newton on 1/||z(mu)|| = 1/rho (More & Sorensen 1983), O(d) a step,
    bisecting the bracket [lo, hi] of mu instead of any step that leaves it,
    until a step moves mu by at most DUAL_TOL * max(1, mu)."""
    lo, hi = 0.0, max(1.0, lam)
    for _ in range(500):
        z = c / (evals + lam + hi)
        if math.sqrt(z @ z) <= rho:  # what np.linalg.norm computes for a vector
            break
        hi *= 2.0
    else:
        raise SolverError("could not bracket the constraint dual")
    mu = 0.0
    for _ in range(300):
        s = evals + lam + mu
        z = c / s
        norm = math.sqrt(z @ z)
        lo, hi = (mu, hi) if norm > rho else (lo, mu)
        # Newton on 1/||z|| - 1/rho: d(1/||z||)/dmu = (z @ (z / s)) / ||z||^3
        step = norm * norm * (norm - rho) / (rho * (z @ (z / s)))
        if abs(step) <= DUAL_TOL * max(1.0, mu):
            return min(max(mu + step, lo), hi)
        mu = mu + step if lo < mu + step < hi else 0.5 * (lo + hi)
    raise SolverError("the constraint dual did not converge")


def train_base_ridge_constrained(data, lam, rho, b=None):
    """Solve norm-constrained ridge regression, optionally with a linear
    noise term b.theta in the objective (b=None gives the base learner).

    Returns theta and the dual mu of the constraint ||theta|| <= rho,
    satisfying (X'X + (lam+mu)I) theta = X'y - b with mu >= 0 and
    complementary slackness. The unconstrained solution is used whenever
    it is feasible (mu = 0 exactly); otherwise mu is found by Newton steps.

    b is one (d,) draw, which returns one model, or an (m, d) stack of
    draws, which returns a stack of m with one mu per row. Each row is
    solved on its own in the dataset's cached eigenbasis of X'X
    (Dataset.gram_eigh), so row i is bit for bit the single-draw solve of b[i].
    """
    return _ridge(data, _checked("lam", lam, Positive), _checked("rho", rho, Positive), b)


def _ridge(data, lam, rho, b):  # train_base_ridge_constrained, with lam and rho already checked
    b = _as_noise(b, data.dim)
    Xty, (evals, Q) = data.gram[1], data.gram_eigh
    rows = b.reshape(-1, data.dim)
    theta, mu = np.empty(rows.shape), np.zeros(len(rows))
    for i, row in enumerate(rows):
        theta[i], mu[i] = _ridge_solve(Xty, evals, Q, lam, rho, row)
    return ModelParams(theta[0], mu[0]) if b.ndim == 1 else ModelParams(theta, mu)


def _ridge_solve(Xty, evals, Q, lam, rho, b):
    """(theta, mu) of norm-constrained ridge at one (d,) draw b, from X'y
    and the eigenbasis (evals, Q) of X'X: theta = Q z(mu) with z(mu) =
    Q'(X'y - b) / (evals + lam + mu), at mu = 0 if that is feasible,
    else at the constraint's dual (_ridge_dual)."""
    c = Q.T @ (Xty - b)
    theta = Q @ (c / (evals + lam))
    if math.sqrt(theta @ theta) > rho:  # what np.linalg.norm computes
        mu = _ridge_dual(evals, c, lam, rho)
        return Q @ (c / (evals + lam + mu)), mu
    return theta, 0.0


def train_mechanism(victim, data, b, *, warm_start=None):
    """Train the victim's private learner on data with noise draw b.

    Objective perturbation adds b.theta to the training objective; output
    perturbation trains the base learner and adds b to the result (so the
    norm constraint of a ridge victim applies to theta - b). Deterministic
    given (data, b).

    b is one (d,) draw, which returns one model, or an (m, d) stack of
    draws, which returns a stack of m (one ModelParams). data is one
    Dataset, or, for an objective-perturbation logistic victim, the
    (features, labels) arrays of m datasets, (m, n, d) and (m, n), one
    per row of a stack, with a stack of warm starts.
    Output perturbation solves the noiseless base learner of one dataset
    from a cold start once (Dataset.cached), so the blocks of a
    Monte-Carlo estimate share it."""
    if isinstance(data, Dataset):
        b = _as_noise(b, data.dim)
    elif victim.mechanism is not Mechanism.OBJECTIVE or victim.base is not BaseLearner.LOGISTIC:
        raise ValueError("stacked datasets need an objective-perturbation logistic victim")
    if victim.mechanism is Mechanism.OBJECTIVE:
        return _train_base(victim, data, b, warm_start)
    if warm_start is None:
        key = ("base", victim.base, victim.lam, victim.rho)
        model = data.cached(key, lambda: _train_base(victim, data, None, None))
    else:
        model = _train_base(victim, data, None, warm_start)
    return ModelParams(model.theta + b, model.mu)


def _train_base(victim, data, b, warm_start):  # victim's fields were checked when it was built
    if victim.base is BaseLearner.LOGISTIC:
        return _logistic(data, victim.lam, b, warm_start)
    return _ridge(data, victim.lam, victim.rho, b)
