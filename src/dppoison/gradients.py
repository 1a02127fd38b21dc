"""Implicit gradients of the attack cost with respect to training items.

The trained model is an argmin, so its derivative in a training item
follows from implicit differentiation of the stationarity conditions:
d(theta)/d(z_i) = -(df/dtheta)^{-1} (df/dz_i). Chaining with the cost
gradient dC/dtheta gives, for each victim, a closed-form gradient of
C(M(D, b)) in the item's coordinates at a fixed noise draw b. That
quantity is an unbiased stochastic gradient of the expected cost J.

The linear system (df/dtheta)^{-1} dC/dtheta is shared by all items, so
the batched entry point factors it once and evaluates each item in O(d).
For ridge victims the constraint dual mu is treated as a constant under
differentiation, matching the closed forms; at points where the
constraint switches activity the implicit gradient is discontinuous and
the formulas are used as-is with the solver's returned mu.

A retraining central-difference oracle is included for validation.
"""

import numpy as np

from .core import BaseLearner, Goal, Mechanism, eval_cost, sigmoid
from .learners import train_mechanism

__all__ = [
    "cost_gradient",
    "batch_item_gradients",
    "finite_difference_oracle",
]


def cost_gradient(cost, model):
    """Analytic gradient of eval_cost in the model parameters: a (d,)
    array for one model, an (m, d) one, a row per model, for a stack."""
    if cost.dim != model.dim:
        raise ValueError(f"dimension mismatch: cost is {cost.dim}d, model is {model.dim}d")
    theta = model.theta
    if cost.goal is Goal.PARAMETER_TARGETING:
        return theta - cost.target_model.theta
    X = cost.eval_set.X
    # a stack's products hold one column per model, so .T is a no-op for one
    y = cost.eval_set.y if theta.ndim == 1 else cost.eval_set.y[:, None]
    m = len(cost.eval_set)
    if cost.loss == "logistic":
        g = -(X.T @ (y * sigmoid(-y * (X @ theta.T)))) / m
    else:
        g = X.T @ (X @ theta.T - y) / m
    if cost.goal is Goal.LABEL_AVERSION:
        return -g.T
    return g.T


def _logistic_grads(X, y, theta_eff, lam, cost_grad, idx):
    """Feature and label gradients for logistic victims at the effective
    parameter theta_eff (the argmin itself; for output perturbation that is
    theta - b). A classification label is not an attack coordinate, so its
    gradient is zero. Returns ((len(idx), d), (len(idx),)) arrays."""
    p = sigmoid(-y * (X @ theta_eff))  # 1 / (1 + s_j)
    w = p * (1.0 - p)  # s_j / (1 + s_j)^2
    H = lam * np.eye(X.shape[1]) + X.T @ (X * w[:, None])
    v = np.linalg.solve(H, cost_grad)
    xv = X[idx] @ v
    d_feat = (y[idx] * p[idx])[:, None] * v[None, :] - (w[idx] * xv)[:, None] * theta_eff[None, :]
    return d_feat, np.zeros(len(idx))


def _stacked_logistic_grads(X, y, theta, lam, cost_grads, lanes, rows):
    """_logistic_grads for m objective-perturbation logistic models at
    once: model i, theta[i], was trained on (X[i], y[i]), with X (m, n, d)
    and y (m, n), and cost_grads[i] is its cost gradient. The m Hessians
    are one batched product and their m systems one solve; item j is row
    rows[j] of dataset lanes[j], taken with its model's v and theta.
    Returns ((len(rows), d), (len(rows),)) arrays."""
    p = sigmoid(-y * (X @ theta[:, :, None])[:, :, 0])
    w = p * (1.0 - p)
    # learners._row_products' Hessian rows pay off over a solve's iterations, not once
    H = lam * np.eye(X.shape[2]) + X.transpose(0, 2, 1) @ (X * w[:, :, None])
    v = np.linalg.solve(H, cost_grads[:, :, None])[:, :, 0][lanes]
    x, p, w, theta = X[lanes, rows], p[lanes, rows], w[lanes, rows], theta[lanes]
    xv = np.einsum("ij,ij->i", x, v)
    d_feat = (y[lanes, rows] * p)[:, None] * v - (w * xv)[:, None] * theta
    return d_feat, np.zeros(len(rows))


def _ridge_grads(evals, Q, X, y, theta_eff, lam, mu, cost_grad):
    """Feature and label gradients of the items (X, y) for ridge victims,
    in the eigenbasis (evals, Q) of the training data's X'X, at the
    effective parameter theta_eff (as for _logistic_grads) and dual mu.
    Returns ((len(X), d), (len(X),)) arrays."""
    v = Q @ ((Q.T @ cost_grad) / (evals + lam + mu))
    xv = X @ v
    resid = X @ theta_eff - y
    # -(xv theta' + resid v') as one rank-two product: several times faster than two outer products
    return np.column_stack([xv, resid]) @ -np.vstack([theta_eff, v]), xv


def batch_item_gradients(victim, data, model, b, cost_grad, indices):
    """Gradients for several items of one trained model, sharing a single
    factored system.

    Returns (features, labels): an (m, d) and an (m,) array. The label
    gradients are zero for logistic victims.
    """
    idx = np.asarray(indices, dtype=int)
    cost_grad = np.asarray(cost_grad, dtype=float)
    theta_eff = model.theta
    if victim.mechanism is Mechanism.OUTPUT:
        theta_eff = theta_eff - np.asarray(b, dtype=float)
    if victim.base is BaseLearner.LOGISTIC:
        return _logistic_grads(data.X, data.y, theta_eff, victim.lam, cost_grad, idx)
    X, y = data.X.take(idx, axis=0), data.y.take(idx)  # the rows X[idx] copies, faster
    return _ridge_grads(*data.gram_eigh, X, y, theta_eff, victim.lam, model.mu, cost_grad)


def finite_difference_oracle(victim, data, i, b, cost, h=1e-5):
    """Central differences of C(M(D, b)) in item i's coordinates, holding
    the noise draw b fixed and retraining at each perturbed point.

    Validates the analytic gradients; the error decays as O(h^2). The
    solver tolerances (learners.GRAD_TOL) must be well below h for the
    quotients to be meaningful.
    Returns (features, label) as batch_item_gradients does for one item:
    a (d,) array and a float, 0.0 for a logistic victim because a
    classification label is not an attack coordinate.
    """
    if not 1e-6 <= h <= 1e-4:
        raise ValueError("h must lie in [1e-6, 1e-4]")

    # every retrain starts at the unperturbed data's model; output
    # perturbation retrains its base learner, the model of a zero draw
    start = train_mechanism(victim, data, b if victim.mechanism is Mechanism.OBJECTIVE else np.zeros(data.dim))

    def cost_at(features, label):
        shifted = data.with_modified([i], features[None, :], np.array([label]))
        return eval_cost(cost, train_mechanism(victim, shifted, b, warm_start=start))

    x0 = data.X[i].copy()
    y0 = float(data.y[i])
    d_feat = np.empty(data.dim)
    for c in range(data.dim):
        xp, xm = x0.copy(), x0.copy()
        xp[c] += h
        xm[c] -= h
        d_feat[c] = (cost_at(xp, y0) - cost_at(xm, y0)) / (2.0 * h)
    if victim.base is BaseLearner.LOGISTIC:
        return d_feat, 0.0
    return d_feat, (cost_at(x0, y0 + h) - cost_at(x0, y0 - h)) / (2.0 * h)
