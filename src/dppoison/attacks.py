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
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BaseLearner, Dataset, ModelParams, eval_cost, modification_distances, project_rows_inplace
from .core import AtLeast, Count, Mechanism, Positive, _check_fields, _check_finite, _checked, _gram
from .gradients import _ridge_grads, _stacked_logistic_grads, batch_item_gradients, cost_gradient
from .learners import SolverError, _ridge_solve, sample_noise, train_mechanism
from .rng import STAGE_SELECT, STAGE_SGD, _entropy, substream

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
    "select_items",
    "run_attack",
    "sweep_attacks",
]


class SelectionMethod(str, enum.Enum):
    SHALLOW = "shallow"
    DEEP = "deep"


class AttackMode(str, enum.Enum):
    DPV = "dpv"  # attack the private learner directly, fresh noise per step
    SV = "sv"  # attack the noiseless base learner as a surrogate


@dataclass(frozen=True)
class AttackConfig:
    """Attack budget and loop parameters.

    k is the number of items the attacker may modify; k = n poisons every
    item, with no selection. eta stays constant (no decay). m_select is
    the number of noise draws averaged for shallow selection in DPV mode.
    alpha weighs the modification penalty of the relaxed attack used by
    deep selection; relax_T overrides its iteration count (default: T).
    T_eval is the Monte-Carlo sample count used when estimating costs.
    The seed an attack draws from is an argument of run_attack.
    """

    k: Count
    T: Count
    selection: SelectionMethod = SelectionMethod.DEEP
    mode: AttackMode = AttackMode.DPV
    eta: Positive = 1.0
    m_select: AtLeast(1) = 1000
    alpha: Positive = 1e-4
    T_eval: AtLeast(2) = 1000
    relax_T: Optional[Count] = None

    def __post_init__(self):
        _check_fields(self)


@dataclass
class AttackTrace:
    """Record of one attack run.

    Snapshot s holds the selected items' coordinates after ``iterations[s]``
    SGD steps: at 0, at each step run_attack recorded and at the last one
    completed, so ``final_data`` is always ``dataset_at(iterations[-1])``.
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


def _noise(dim, dpv, scale, rng):
    """A fresh noise draw in DPV mode, zero noise in SV mode."""
    return sample_noise(dim, scale, rng) if dpv else np.zeros(dim)


def shallow_scores(victim, data, cost, mode, m_select, rng):
    """Initial-gradient norm of every clean item, features and label
    jointly.

    DPV mode averages the stochastic gradient over m_select noise draws
    before taking norms; SV mode uses the exact zero-noise gradient.
    """
    dpv = AttackMode(mode) is AttackMode.DPV
    n, idx = data.n, np.arange(data.n)
    acc_f, acc_l = np.zeros((n, data.dim)), np.zeros(n)
    draws = m_select if dpv else 1
    scale = victim.noise_scale_for(n)
    model = None
    for _ in range(draws):
        b = _noise(data.dim, dpv, scale, rng)
        # an output draw without a warm start takes the base model data caches
        model = train_mechanism(victim, data, b, warm_start=model if victim.mechanism is Mechanism.OBJECTIVE else None)
        feat, lab = batch_item_gradients(victim, data, model, b, cost_gradient(cost, model), idx)
        acc_f += feat
        acc_l += lab
    acc_f /= draws
    acc_l /= draws
    return np.sqrt(np.einsum("ij,ij->i", acc_f, acc_f) + acc_l * acc_l)


class _Lane:
    """One attack of a lockstep descent: its items (sorted, distinct, each in
    [0, n)), their clean coordinates X0, y0 and moved ones Xs, ys (from
    its descent on, the rows ``span`` of the buffer that holds every
    moving lane's rows), its noise stream and radial scale, its current
    dataset and model (the next warm start; a stacked lane's are set when
    it leaves the stack, and a ridge lane's dataset when it leaves the
    descent, while its model, which no ridge solve reads, stays the one it
    started with), the steps it completed, the SolverError that stopped
    it, if one did, and the (features, labels) it keeps, by iteration: 0
    and the recorded steps."""

    def __init__(self, data, items, rng, scale):
        items = np.sort(np.asarray(items, dtype=int))
        if len(items) > 0 and (items[0] < 0 or items[-1] >= data.n):
            raise ValueError("selected indices out of range")
        if np.any(items[1:] == items[:-1]):
            raise ValueError("selected indices must be distinct")
        self.items = items
        self.X0, self.y0 = data.X[items], data.y[items]
        self.Xs, self.ys, self.span = self.X0, self.y0, None
        self.rng, self.scale = rng, scale
        self.clean = self.data = data
        self.rows = slice(None) if len(items) == data.n else items
        self.model = self.error = None
        self.steps, self.kept = 0, {0: (self.X0, self.y0)}


def _joined(arrays):
    """np.concatenate(arrays), or the one array itself: a lone lane's copy
    would take about 2% of a relaxed step's time at n = 1598, and its
    memory."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _lane_gradients(victim, cost, lanes, draws):
    """(models, features, labels): each logistic lane trained alone at its
    noise draw, on its dataset and from its own model, and the lanes' item
    gradients (batch_item_gradients) concatenated in lane order. A
    SolverError names the failed lane in its rows."""
    models = []
    for i, (lane, b) in enumerate(zip(lanes, draws)):
        try:
            models.append(train_mechanism(victim, lane.data, b, warm_start=lane.model))
        except SolverError as exc:
            raise SolverError(str(exc), [i]) from exc
    grads = [
        batch_item_gradients(victim, lane.data, model, b, cost_gradient(cost, model), lane.items)
        for lane, model, b in zip(lanes, models, draws)
    ]
    return models, *map(_joined, zip(*grads))


class _Stack:
    """Two or more objective-perturbation logistic lanes trained as one
    stack: their (m, n, d) features and (m, n) labels, which each step
    writes the moved rows into, their (m, d) models (the next warm starts),
    and the lane and item of each moved row, in buffer order."""

    def __init__(self, lanes):
        self.X, self.y = np.stack([lane.data.X for lane in lanes]), np.stack([lane.data.y for lane in lanes])
        self.theta = np.stack([lane.model.theta for lane in lanes])
        sizes = [len(lane.items) for lane in lanes]
        self.which = np.repeat(np.arange(len(lanes)), sizes), np.concatenate([lane.items for lane in lanes])

    def gradients(self, victim, cost, draws):
        """(models, features, labels) at the lanes' noise draws, the models
        as one (m, d) array: one batched Newton, then every lane's item
        gradients in one pass. A SolverError names the failed lanes in its
        rows."""
        model = train_mechanism(victim, (self.X, self.y), np.array(draws), warm_start=ModelParams(self.theta))
        grads = cost_gradient(cost, model)
        return model.theta, *_stacked_logistic_grads(self.X, self.y, model.theta, victim.lam, grads, *self.which)

    def step(self, theta, Xs, ys):
        """Take a step's models and moved rows, which are checked here as
        with_modified checks a lone lane's."""
        _check_finite(Xs, ys)
        self.X[self.which], self.y[self.which] = Xs, ys
        self.theta = theta

    def release(self, lanes):
        """Give each lane its dataset and model as of the last step."""
        for lane, theta in zip(lanes, self.theta):
            lane.data = lane.clean.with_modified(lane.rows, lane.Xs, lane.ys)
            lane.model = ModelParams(theta)

    def drop(self, lanes, j):
        """Release the lanes, after lane j failed: the stack of the lanes
        before it, or None for a lane left alone, trains on."""
        self.release(lanes)
        return _Stack(lanes[:j]) if j > 1 else None


class _RidgeLanes:
    """Ridge lanes, each solved alone on its own X'X and X'y, with no
    dataset per step. At the first step these are the clean dataset's,
    with its cached eigenbasis; after it, the clean Gram of the lane's
    unmoved rows (Dataset.gram_without, the cache entry that the lane's
    datasets read) plus its moved rows' products, summed as with_modified's
    dataset sums them, so each step is bit for bit a step on that dataset."""

    def __init__(self, lanes):
        self.lanes = list(lanes)
        self.kept = [lane.clean.gram_without(lane.rows)[1] for lane in lanes]

    def gradients(self, victim, cost, draws):
        """(models, features, labels) as _lane_gradients gives them: each
        lane's solve (_ridge_solve) and its items' gradients (_ridge_grads),
        as train_mechanism and batch_item_gradients would take them on the
        lane's dataset. A SolverError names the failed lane in its rows."""
        output = victim.mechanism is Mechanism.OUTPUT
        models, grads = [], []
        for i, (lane, kept, b) in enumerate(zip(self.lanes, self.kept, draws)):
            if lane.steps == 0:
                (_, Xty), (evals, Q) = lane.clean.gram, lane.clean.gram_eigh
            else:
                moved = _gram(lane.Xs, lane.ys)
                XtX, Xty = kept[0] + moved[0], kept[1] + moved[1]
                evals, Q = np.linalg.eigh(XtX)
            try:
                # output perturbation solves its base learner and releases theta + b
                theta, mu = _ridge_solve(Xty, evals, Q, victim.lam, victim.rho, 0.0 if output else b)
            except SolverError as exc:
                raise SolverError(str(exc), [i]) from exc
            model = ModelParams(theta + b if output else theta, mu)
            # differentiated at (theta + b) - b, as batch_item_gradients does
            theta_eff = model.theta - b if output else model.theta
            cost_grad = cost_gradient(cost, model)
            grads.append(_ridge_grads(evals, Q, lane.Xs, lane.ys, theta_eff, victim.lam, mu, cost_grad))
            models.append(model)
        return models, *map(_joined, zip(*grads))

    def step(self, models, Xs, ys):
        """Check a step's moved rows, as with_modified checks a lone lane's;
        ridge solves take no warm start, so the models are not kept."""
        _check_finite(Xs, ys)

    def release(self, lanes):
        """Give each lane its dataset as of the last step."""
        for lane in lanes:
            lane.data = lane.clean.with_modified(lane.rows, lane.Xs, lane.ys)

    def drop(self, lanes, j):
        """Release lanes j:, after lane j failed; the lanes before it train on."""
        self.release(lanes[j:])
        return _RidgeLanes(lanes[:j])


def _descend(victim, cost, lanes, eta, alpha, T, mode, record=frozenset()):
    """Projected gradient descent of the lanes in lockstep, T steps.

    Each step trains the victim on each lane's data (a fresh draw from
    the lane's stream in DPV mode, zero noise in SV mode), warm-started
    from the lane's previous model (its base model, the released one minus
    the draw, under output perturbation), moves its items along their
    gradients plus alpha times their displacement, projects them back to
    the feasible set, and keeps their snapshot if the step is in record.
    The moving lanes' rows are one buffer, in lane order, so a step makes
    one update, one projection and one snapshot copy for all of them.
    Ridge lanes (_RidgeLanes) solve each step on their own statistics and
    make no dataset per step: a lane gets its dataset when it leaves the
    descent. Two or more objective-perturbation logistic lanes are trained
    as one _Stack, and a lane gets its dataset when it leaves the stack;
    any other lane is trained alone, on a dataset each step makes from the
    clean one, so none keeps an earlier alive. A logistic victim's label
    gradient is zero, so its labels never move. A lane with no items
    neither draws noise nor trains. When a solve fails, the first failed
    lane keeps the error and stops, as do the lanes after it (a sweep ends
    at its first failed row); the lanes before it solve the step again
    with the same draws, and a lane left alone leaves the stack. The
    descent ends early once every lane that moves has stopped.
    """
    for lane in lanes:
        if len(lane.items) == 0:  # it takes every step in place
            lane.steps, lane.kept = T, {t: (lane.X0, lane.y0) for t in sorted({0, T} | set(record))}
    moving = [lane for lane in lanes if len(lane.items) > 0]
    if not moving:
        return
    dpv = AttackMode(mode) is AttackMode.DPV
    # lane i owns the rows ends[i] - k_i:ends[i], so dropping lanes j: keeps a prefix
    ends = np.cumsum([len(lane.items) for lane in moving])
    X0, y0 = _joined([lane.X0 for lane in moving]), _joined([lane.y0 for lane in moving])
    Xs, ys = X0.copy(), y0.copy()
    for lane, end in zip(moving, ends):
        lane.span = slice(end - len(lane.items), end)
        lane.Xs, lane.ys = Xs[lane.span], ys[lane.span]
    if victim.base is BaseLearner.RIDGE:
        group = _RidgeLanes(moving)
    else:  # None: each lane is trained alone, on its dataset (_lane_gradients)
        group = _Stack(moving) if victim.mechanism is Mechanism.OBJECTIVE and len(moving) > 1 else None
    for t in range(1, T + 1):
        draws = [_noise(lane.data.dim, dpv, lane.scale, lane.rng) for lane in moving]
        while True:
            try:
                if group is None:
                    models, feat, lab = _lane_gradients(victim, cost, moving, draws)
                else:
                    models, feat, lab = group.gradients(victim, cost, draws)
                break
            except SolverError as exc:
                j = int(min(exc.rows))
                moving[j].error = exc
                if group is not None:
                    group = group.drop(moving, j)
                del moving[j:], draws[j:]
                if not moving:
                    return
                Xs, ys, X0, y0 = (a[: ends[j - 1]] for a in (Xs, ys, X0, y0))
        if alpha:  # feat and lab are fresh arrays
            feat += alpha * (Xs - X0)
            lab += alpha * (ys - y0)
        Xs -= eta * feat
        ys -= eta * lab
        project_rows_inplace(Xs, ys)
        if group is None:
            for lane, b, model in zip(moving, draws, models):
                lane.model = ModelParams(model.theta - b, model.mu) if victim.mechanism is Mechanism.OUTPUT else model
                lane.data = lane.clean.with_modified(lane.rows, lane.Xs, lane.ys)
        else:
            group.step(models, Xs, ys)
        for lane in moving:
            lane.steps = t
        if t in record:
            Xc, yc = Xs.copy(), ys.copy()
            for lane in moving:
                lane.kept[t] = (Xc[lane.span], yc[lane.span])
    if group is not None:
        group.release(moving)


def relaxed_attack(victim, data, cost, alpha, eta, T, mode, rng):
    """Attack with no budget: every item takes gradient steps on the cost
    plus alpha times its modification distance, projected each iteration.

    The penalty gradient is alpha times the item's (x, y) displacement.
    The penalty term alone is stable only for eta * alpha < 2; large-alpha
    runs need a correspondingly small step size.
    """
    _checked("alpha", alpha, Positive)
    lane = _Lane(data, np.arange(data.n), rng, victim.noise_scale_for(data.n))
    _descend(victim, cost, [lane], eta, alpha, T, mode)
    if lane.error is not None:
        raise lane.error
    return lane.data


def deep_scores(victim, data, cost, config, rng):
    """Modification distance of every item after a relaxed attack run."""
    T = config.relax_T if config.relax_T is not None else config.T
    relaxed = relaxed_attack(victim, data, cost, config.alpha, config.eta, T, config.mode, rng)
    return modification_distances(relaxed.X, relaxed.y, data.X, data.y)


def selection_scores(victim, data, cost, config, seed):
    """Step I: a score for every item, by config.selection (shallow or
    deep), drawn from the selection substream of seed. The k items to
    poison are the k largest scores."""
    rng = substream(seed, STAGE_SELECT)
    if config.selection is SelectionMethod.SHALLOW:
        return shallow_scores(victim, data, cost, config.mode, config.m_select, rng)
    return deep_scores(victim, data, cost, config, rng)


def select_items(victim, data, cost, config, seed):
    """Step I: the sorted indices of the config.k items to poison (all
    of them when k = n, none when k = 0)."""
    n = data.n
    if config.k > n:
        raise ValueError(f"budget k={config.k} exceeds dataset size n={n}")
    _entropy(seed)  # refuse a seed that would alias another, even if no stream is drawn
    if config.k == 0:
        return np.arange(0)
    if config.k == n:
        # Selection is moot when every item may be poisoned.
        return np.arange(n)
    return top_k_indices(selection_scores(victim, data, cost, config, seed), config.k)


def run_attack(victim, data, cost, config, seed=0, selected=None, record=None):
    """Run the two-step attack and return its trace.

    Step I picks the items per config.selection (or uses ``selected`` as
    given). Step II takes T projected gradient steps on the selected items
    (fresh noise per step in DPV mode, zero noise in SV mode), the first
    warm-started from the noiseless model on the clean data. Unselected
    items never change. The noiseless surrogate is trained on the clean
    and the final data only; the trace keeps the final one. Selection and
    the SGD noise draw from their own substreams of ``seed``, so the run
    is deterministic given (data, config, seed, selected). The trace keeps
    the snapshots of the iterations in ``record`` (all T + 1 if None; each
    in [0, T], else ValueError), of iteration 0 and of the last completed
    step, in O(len(record) * k * d) memory.
    """
    record = np.arange(config.T + 1) if record is None else np.asarray(record, dtype=int)
    if np.any((record < 0) | (record > config.T)):
        raise ValueError(f"recorded iterations must lie in [0, T={config.T}], got {record.tolist()}")
    if selected is None:
        selected = select_items(victim, data, cost, config, seed)
    lane = _Lane(data, selected, substream(seed, STAGE_SGD), victim.noise_scale_for(data.n))
    costs, final = [], None
    try:
        lane.model = clean = train_mechanism(victim, data, np.zeros(data.dim))
        costs.append(eval_cost(cost, clean))
        _descend(victim, cost, [lane], config.eta, 0.0, config.T, config.mode, set(record.tolist()))
        if lane.error is not None:
            raise lane.error
        final = train_mechanism(victim, lane.data, np.zeros(data.dim), warm_start=clean)
        costs.append(eval_cost(cost, final))
    except SolverError as exc:
        lane.error = exc
    lane.kept.setdefault(lane.steps, (lane.Xs, lane.ys))
    feats, labels = zip(*lane.kept.values())
    return AttackTrace(
        selected=lane.items,
        iterations=np.array(list(lane.kept)),
        features=np.stack(feats),
        labels=np.stack(labels),
        surrogate_costs=np.array(costs),
        clean_data=data,
        final_data=lane.data,
        final_model=final,
        error=None if lane.error is None else f"solver failure after {lane.steps} steps: {lane.error}",
    )


def sweep_attacks(victim, data, cost, config, selections, seeds, scales):
    """Step II of one attack per entry of selections, run in lockstep.

    Attack i moves the items selections[i] by config's T steps of size
    eta, drawing its SGD noise at radial scale scales[i] from the SGD
    substream of seeds[i], as run_attack(victim, data, cost, config,
    seeds[i], selections[i]) does with the victim's own noise scale. Every
    attack starts warm from one noiseless solve on the clean data; no
    surrogate is trained on the final data. The attacks are lanes of one
    _descend: an objective-perturbation logistic victim's moving lanes,
    two or more, are trained and differentiated as one stack, and any
    other victim's one at a time, each bit for bit run_attack's Step II.
    Returns (finals, error): the final datasets of the attacks before the
    first whose solve failed, and that attack's SolverError ("solver
    failure after s steps: ...") or None. A failed clean solve fails the
    first attack at step 0. Before any solve, ValueError refuses
    selections, seeds and scales of unequal lengths, a scale that is not
    finite and nonnegative, and an index outside [0, n) or given twice.
    """
    if not len(selections) == len(seeds) == len(scales):
        raise ValueError(
            f"selections, seeds and scales need one entry per attack, "
            f"got {len(selections)}, {len(seeds)} and {len(scales)}"
        )
    for i, scale in enumerate(scales):
        if not 0.0 <= scale < math.inf:
            raise ValueError(f"scales[{i}] must be finite and nonnegative, got {scale!r}")
    lanes = [
        _Lane(data, items, substream(seed, STAGE_SGD), scale) for items, seed, scale in zip(selections, seeds, scales)
    ]
    if not lanes:
        return [], None
    try:
        clean = train_mechanism(victim, data, np.zeros(data.dim))
    except SolverError as exc:
        return [], SolverError(f"solver failure after 0 steps: {exc}")
    for lane in lanes:
        lane.model = clean
    _descend(victim, cost, lanes, config.eta, 0.0, config.T, config.mode)
    for i, lane in enumerate(lanes):
        if lane.error is not None:
            error = SolverError(f"solver failure after {lane.steps} steps: {lane.error}")
            return [done.data for done in lanes[:i]], error
    return [lane.data for lane in lanes], None
