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
    ModelParams,
    eval_cost,
    modification_distances,
    project_rows_inplace,
)
from .gradients import batch_item_gradients, cost_gradient
from .learners import SolverError, sample_noise, train_mechanism
from .rng import STAGE_SELECT, STAGE_SGD, substream

__all__ = [
    "SelectionMethod",
    "AttackMode",
    "AttackConfig",
    "AttackTrace",
    "top_k_indices",
    "shallow_scores",
    "relaxed_attack",
    "deep_scores",
    "selection_scores",
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
    The seed an attack draws from is an argument of run_attack.
    """

    k: int
    T: int
    selection: SelectionMethod = SelectionMethod.ALL
    mode: AttackMode = AttackMode.DPV
    eta: float = 1.0
    m_select: int = 1000
    alpha: float = 1e-4
    T_eval: int = 1000
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

    Snapshot s holds the selected items' coordinates after
    ``iterations[s]`` SGD steps. Snapshot 0, the untouched data, is always
    recorded, and ``final_data`` is always ``dataset_at(iterations[-1])``.
    ``surrogate_costs`` is [C(M(D, 0)), C(M(D_T, 0))], the noiseless
    surrogate's cost on the clean and the final data, and ``final_model``
    is that surrogate on the final data. On a solver failure ``error`` is
    set, the trace ends at the last completed step, ``final_model`` is None
    and ``surrogate_costs`` keeps only the clean cost (none if the clean
    solve failed).
    """

    selected: np.ndarray
    iterations: np.ndarray
    features: np.ndarray  # (snapshots, k, d)
    labels: np.ndarray  # (snapshots, k)
    surrogate_costs: np.ndarray
    clean_data: Dataset
    final_data: Dataset
    final_model: Optional[ModelParams] = None
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


def shallow_scores(victim, data, cost, mode, m_select, rng):
    """Initial-gradient norm of every clean item.

    DPV mode averages the stochastic gradient over m_select noise draws
    before taking norms; SV mode uses the exact zero-noise gradient. For
    ridge victims features and label contribute jointly to the norm.
    """
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
        model = train_mechanism(victim, data, b, warm_start=warm)
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


def _descend(victim, data, cost, items, eta, alpha, T, mode, rng, warm=None):
    """Projected gradient descent on the given items; yields the dataset
    after each of T steps.

    Each step trains the victim on the current data (a fresh noise draw in
    DPV mode, zero noise in SV mode), warm-started from the previous
    step's model; moves every item along its gradient, plus alpha times
    its displacement from the clean item when alpha is nonzero; and
    projects the moved items back to the feasible set. With no items a
    step neither draws noise nor trains. A SolverError propagates from
    the step that failed.
    """
    n, d = data.n, data.dim
    ridge = victim.base is BaseLearner.RIDGE
    dpv = AttackMode(mode) is AttackMode.DPV
    scale = victim.noise_scale_for(n)
    X, y = data.X.copy(), data.y.copy()
    X0, y0 = X[items], y[items]
    Xs, ys = X0.copy(), y0.copy()  # the moved items, scattered into X, y each step
    cur = data
    for _ in range(T):
        if len(items) > 0:
            b = sample_noise(d, scale, rng) if dpv else np.zeros(d)
            model = warm = train_mechanism(victim, cur, b, warm_start=warm)
            g = cost_gradient(cost, model)
            feat, lab = batch_item_gradients(victim, cur, model, b, g, items)
            if alpha:
                feat = feat + alpha * (Xs - X0)
                if ridge:
                    lab = lab + alpha * (ys - y0)
            Xs -= eta * feat
            if ridge:
                ys -= eta * lab
            project_rows_inplace(Xs, ys if ridge else None)
            X[items] = Xs
            y[items] = ys
            cur = Dataset(X, y)
        yield cur


def relaxed_attack(victim, data, cost, alpha, eta, T, mode, rng):
    """Attack with no budget: every item takes gradient steps on the cost
    plus alpha times its modification distance, projected each iteration.

    The penalty gradient is alpha * (x - x_clean) (plus the label term
    for ridge). The penalty term alone is stable only for eta * alpha < 2;
    large-alpha runs need a correspondingly small step size.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    cur = data
    for cur in _descend(victim, data, cost, np.arange(data.n), eta, alpha, T, mode, rng):
        pass
    return cur


def deep_scores(victim, data, cost, config, rng):
    """Modification distance of every item after a relaxed attack run."""
    T = config.relax_T if config.relax_T is not None else config.T
    relaxed = relaxed_attack(victim, data, cost, config.alpha, config.eta, T, config.mode, rng)
    return modification_distances(relaxed.X, relaxed.y, data.X, data.y, victim.base)


def selection_scores(victim, data, cost, config, seed):
    """Step I: a score for every item, by config.selection (shallow or
    deep), drawn from the selection substream of seed. The k items to
    poison are the k largest scores."""
    if config.selection is SelectionMethod.ALL:
        raise ValueError("selection 'all' ranks no items: k < n needs shallow or deep selection")
    rng = substream(seed, STAGE_SELECT)
    if config.selection is SelectionMethod.SHALLOW:
        return shallow_scores(victim, data, cost, config.mode, config.m_select, rng)
    return deep_scores(victim, data, cost, config, rng)


def _select(victim, data, cost, config, seed):
    n = data.n
    if config.k > n:
        raise ValueError(f"budget k={config.k} exceeds dataset size n={n}")
    if config.k == 0:
        return np.arange(0)
    if config.k == n:
        # Selection is moot when every item may be poisoned.
        return np.arange(n)
    return top_k_indices(selection_scores(victim, data, cost, config, seed), config.k)


def run_attack(victim, data, cost, config, seed=0, selected=None):
    """Run the two-step attack and return its trace.

    Step I picks the items per config.selection (or uses ``selected`` as
    given). Step II takes T projected gradient steps on the selected items
    (fresh noise per step in DPV mode, zero noise in SV mode), the first
    warm-started from the noiseless model on the clean data. Unselected
    items never change. The noiseless surrogate is trained on the clean
    and the final data only; the trace keeps the final one. Selection and
    the SGD noise draw from their own substreams of ``seed``, so the run
    is deterministic given (data, config, seed, selected).
    """
    n, d = data.n, data.dim
    if selected is None:
        selected = _select(victim, data, cost, config, seed)
    selected = np.sort(np.asarray(selected, dtype=int))
    if len(selected) > 0 and (selected[0] < 0 or selected[-1] >= n):
        raise ValueError("selected indices out of range")
    zero_b = np.zeros(d)
    feats = np.empty((config.T + 1, len(selected), d))
    labels = np.empty((config.T + 1, len(selected)))
    feats[0], labels[0] = data.X[selected], data.y[selected]
    costs = []
    steps = 0
    cur = data
    final = error = None
    rng = substream(seed, STAGE_SGD)
    try:
        clean = train_mechanism(victim, data, zero_b)
        costs.append(eval_cost(cost, clean))
        for cur in _descend(
            victim, data, cost, selected, config.eta, 0.0, config.T, config.mode, rng, warm=clean
        ):
            steps += 1
            feats[steps], labels[steps] = cur.X[selected], cur.y[selected]
        final = train_mechanism(victim, cur, zero_b, warm_start=clean)
        costs.append(eval_cost(cost, final))
    except SolverError as exc:
        error = f"solver failure after {steps} steps: {exc}"
    return AttackTrace(
        selected=selected,
        iterations=np.arange(steps + 1),
        features=feats[: steps + 1],
        labels=labels[: steps + 1],
        surrogate_costs=np.array(costs),
        clean_data=data,
        final_data=cur,
        final_model=final,
        error=error,
    )
