"""Item selection and the poisoning gradient-descent loops.

The attack runs in two steps: pick which k items to poison, then run
(stochastic) gradient descent on their coordinates to shrink the attack
cost. Against the private victim (DPV mode) each iteration draws fresh
noise and uses the resulting single-sample stochastic gradient; in
surrogate mode (SV) the noise is fixed to zero and the base learner is
attacked with exact gradients.

Selection is either shallow (rank items by the initial gradient norm at
the clean data) or deep (solve a relaxed attack that may move every item
under a modification penalty, then rank by how far each item moved).
"""

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BaseLearner,
    Dataset,
    eval_cost,
    modification_distances,
    project_rows_inplace,
)
from .gradients import batch_item_gradients, cost_gradient
from .learners import DEFAULT_SETTINGS, SolverError, sample_noise, train_mechanism
from .rng import STAGE_SELECT, STAGE_SGD, substream

__all__ = [
    "SelectionMethod",
    "AttackMode",
    "AttackConfig",
    "AttackTrace",
    "top_k_indices",
    "shallow_scores",
    "select_shallow",
    "relaxed_attack",
    "deep_scores",
    "select_deep",
    "run_attack",
]


class SelectionMethod(str, enum.Enum):
    SHALLOW = "shallow"
    DEEP = "deep"
    ALL = "all"


class AttackMode(str, enum.Enum):
    DPV = "dpv"  # attack the private learner directly, fresh noise per step
    SV = "sv"  # attack the noiseless base learner as a surrogate


@dataclass(frozen=True)
class AttackConfig:
    """Attack budget and loop parameters.

    k is the number of items the attacker may modify; selection ALL
    requires k = n. eta stays constant (no decay). m_select is the number
    of noise draws averaged for shallow selection in DPV mode. alpha
    weighs the modification penalty of the relaxed attack used by deep
    selection; relax_T overrides its iteration count (default: T).
    T_eval is the Monte-Carlo sample count used when estimating costs.
    """

    k: int
    T: int
    selection: SelectionMethod = SelectionMethod.ALL
    mode: AttackMode = AttackMode.DPV
    eta: float = 1.0
    m_select: int = 1000
    alpha: float = 1e-4
    T_eval: int = 1000
    seed: int = 0
    relax_T: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "selection", SelectionMethod(self.selection))
        object.__setattr__(self, "mode", AttackMode(self.mode))
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.m_select < 1:
            raise ValueError("m_select must be at least 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.T_eval < 2:
            raise ValueError("T_eval must be at least 2")
        if self.relax_T is not None and self.relax_T < 0:
            raise ValueError("relax_T must be nonnegative")


@dataclass
class AttackTrace:
    """Full record of one attack run.

    Snapshot s describes the poisoned set after ``iterations[s]`` SGD
    steps (snapshot 0 is the untouched data), holding the selected items'
    coordinates and the surrogate cost C(M(D, 0)). On a mid-run solver
    failure the trace is truncated at the last completed iteration and
    ``error`` is set.
    """

    selected: np.ndarray
    iterations: np.ndarray
    features: np.ndarray  # (snapshots, k, d)
    labels: np.ndarray  # (snapshots, k)
    surrogate_costs: np.ndarray
    clean_data: Dataset
    final_data: Dataset
    error: Optional[str] = None

    def dataset_at(self, iteration):
        """Reconstruct the poisoned dataset as of a recorded iteration."""
        pos = np.searchsorted(self.iterations, iteration)
        if pos >= len(self.iterations) or self.iterations[pos] != iteration:
            raise ValueError(f"iteration {iteration} is not recorded in this trace")
        if len(self.selected) == 0:
            return self.clean_data
        return self.clean_data.with_modified(self.selected, self.features[pos], self.labels[pos])


def top_k_indices(scores, k):
    """Indices of the k largest scores, ties broken by lower index,
    returned sorted ascending."""
    scores = np.asarray(scores, dtype=float)
    if not 0 <= k <= len(scores):
        raise ValueError("k must lie in [0, n]")
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k])


def shallow_scores(victim, data, cost, mode, m_select, rng, settings=None):
    """Initial-gradient norm of every clean item.

    DPV mode averages the stochastic gradient over m_select noise draws
    before taking norms; SV mode uses the exact zero-noise gradient. For
    ridge victims features and label contribute jointly to the norm.
    """
    settings = settings or DEFAULT_SETTINGS
    mode = AttackMode(mode)
    n, d = data.n, data.dim
    idx = np.arange(n)
    ridge = victim.base is BaseLearner.RIDGE
    acc_f = np.zeros((n, d))
    acc_l = np.zeros(n) if ridge else None
    draws = m_select if mode is AttackMode.DPV else 1
    scale = victim.noise_scale_for(n)
    warm = None
    for _ in range(draws):
        b = sample_noise(d, scale, rng) if mode is AttackMode.DPV else np.zeros(d)
        model = train_mechanism(victim, data, b, settings, warm_start=warm)
        warm = model
        g = cost_gradient(cost, model)
        feat, lab = batch_item_gradients(victim, data, model, b, g, idx)
        acc_f += feat
        if ridge:
            acc_l += lab
    acc_f /= draws
    norms2 = np.einsum("ij,ij->i", acc_f, acc_f)
    if ridge:
        acc_l /= draws
        norms2 = norms2 + acc_l * acc_l
    return np.sqrt(norms2)


def select_shallow(victim, data, cost, k, mode, m_select, rng, settings=None):
    """Top-k items by initial gradient norm."""
    return top_k_indices(shallow_scores(victim, data, cost, mode, m_select, rng, settings), k)


def relaxed_attack(victim, data, cost, alpha, eta, T, mode, rng, settings=None):
    """Attack with no budget: every item takes gradient steps on the cost
    plus alpha times its modification distance, projected each iteration.

    The penalty gradient is alpha * (x - x_clean) (plus the label term
    for ridge). The penalty term alone is stable only for eta * alpha < 2;
    large-alpha runs need a correspondingly small step size.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    settings = settings or DEFAULT_SETTINGS
    mode = AttackMode(mode)
    n, d = data.n, data.dim
    ridge = victim.base is BaseLearner.RIDGE
    idx = np.arange(n)
    X0 = data.X.copy()
    y0 = data.y.copy()
    Xp = X0.copy()
    yp = y0.copy()
    scale = victim.noise_scale_for(n)
    cur = data
    warm = None
    for _ in range(T):
        b = sample_noise(d, scale, rng) if mode is AttackMode.DPV else np.zeros(d)
        model = train_mechanism(victim, cur, b, settings, warm_start=warm)
        warm = model
        g = cost_gradient(cost, model)
        feat, lab = batch_item_gradients(victim, cur, model, b, g, idx)
        Xp -= eta * (feat + alpha * (Xp - X0))
        if ridge:
            yp -= eta * (lab + alpha * (yp - y0))
        project_rows_inplace(Xp, yp if ridge else None)
        cur = Dataset(Xp, yp)
    return cur


def deep_scores(victim, data, cost, config, rng, settings=None):
    """Modification distance of every item after a relaxed attack run."""
    T = config.relax_T if config.relax_T is not None else config.T
    relaxed = relaxed_attack(
        victim, data, cost, config.alpha, config.eta, T, config.mode, rng, settings
    )
    return modification_distances(relaxed.X, relaxed.y, data.X, data.y, victim.base)


def select_deep(victim, data, cost, k, config, rng, settings=None):
    """Top-k items by how far the relaxed attack moved them."""
    return top_k_indices(deep_scores(victim, data, cost, config, rng, settings), k)


def _select(victim, data, cost, config, settings):
    n = data.n
    if config.k > n:
        raise ValueError(f"budget k={config.k} exceeds dataset size n={n}")
    if config.k == 0:
        return np.arange(0)
    if config.k == n:
        # Selection is moot when every item may be poisoned.
        return np.arange(n)
    if config.selection is SelectionMethod.ALL:
        raise ValueError("selection 'all' requires k = n")
    rng = substream(config.seed, STAGE_SELECT)
    if config.selection is SelectionMethod.SHALLOW:
        return select_shallow(
            victim, data, cost, config.k, config.mode, config.m_select, rng, settings
        )
    return select_deep(victim, data, cost, config.k, config, rng, settings)


def run_attack(victim, data, cost, config, settings=None, selected=None):
    """Run the two-step attack and return its trace.

    Step I picks the items per config.selection (or uses ``selected`` as
    given). Step II runs T iterations; each one trains the victim on the
    current poisoned set (with a fresh noise draw in DPV mode, zero noise
    in SV mode), steps every selected item along its gradient
    simultaneously, and projects the modified items back to the feasible
    set. Unselected items never change. Deterministic given
    (data, config, selected).
    """
    settings = settings or DEFAULT_SETTINGS
    n, d = data.n, data.dim
    if selected is None:
        selected = _select(victim, data, cost, config, settings)
    selected = np.sort(np.asarray(selected, dtype=int))
    if len(selected) > 0 and (selected[0] < 0 or selected[-1] >= n):
        raise ValueError("selected indices out of range")
    ridge = victim.base is BaseLearner.RIDGE
    dpv = config.mode is AttackMode.DPV
    scale = victim.noise_scale_for(n)
    sgd_rng = substream(config.seed, STAGE_SGD)
    zero_b = np.zeros(d)

    m = len(selected)
    feats = np.empty((config.T + 1, m, d))
    labels = np.empty((config.T + 1, m))
    costs = np.empty(config.T + 1)

    Xp = data.X.copy()
    yp = data.y.copy()
    cur = data
    error = None
    recorded = 0
    try:
        surr = train_mechanism(victim, cur, zero_b, settings)
        feats[0] = Xp[selected]
        labels[0] = yp[selected]
        costs[0] = eval_cost(cost, surr)
        recorded = 1
        warm_noisy = surr
        for t in range(1, config.T + 1):
            if dpv:
                b = sample_noise(d, scale, sgd_rng)
                model = train_mechanism(victim, cur, b, settings, warm_start=warm_noisy)
                warm_noisy = model
            else:
                b = zero_b
                model = surr
            if m > 0:
                g = cost_gradient(cost, model)
                feat, lab = batch_item_gradients(victim, cur, model, b, g, selected)
                sub_X = Xp[selected] - config.eta * feat
                sub_y = yp[selected] - config.eta * lab if ridge else None
                project_rows_inplace(sub_X, sub_y)
                Xp[selected] = sub_X
                if ridge:
                    yp[selected] = sub_y
                cur = Dataset(Xp, yp)
            surr = train_mechanism(victim, cur, zero_b, settings, warm_start=surr)
            feats[t] = Xp[selected]
            labels[t] = yp[selected]
            costs[t] = eval_cost(cost, surr)
            recorded = t + 1
    except SolverError as exc:
        error = f"solver failure at iteration {recorded}: {exc}"
    return AttackTrace(
        selected=selected,
        iterations=np.arange(recorded),
        features=feats[:recorded].copy(),
        labels=labels[:recorded].copy(),
        surrogate_costs=costs[:recorded].copy(),
        clean_data=data,
        final_data=cur,
        error=error,
    )
