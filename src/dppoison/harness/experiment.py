"""Experiment orchestration and result emission.

An experiment is described by a config tree (usually loaded from YAML):
the victim, the attack goal, a data source, an evaluation-set source, the
attack parameters, and optionally a sweep over k or epsilon. Running one
produces up to three files in the output directory:

  trace.csv    poisoned-item coordinates at sampled iterations
               (iteration, item, x0..x{d-1}, y); attack runs only
  costs.csv    Monte-Carlo cost estimates with the theoretical lower
               bound (iteration or sweep value, mean, stderr, lower_bound)
  summary.json config echo, final estimates, bound, runtime, seed

All randomness is derived from the single experiment seed through named
substreams, so a re-run with the same config and seed reproduces the CSVs
bit for bit (the summary differs only in its runtime entry).
"""

import dataclasses
import json
import math
import os
import time
import typing
from dataclasses import dataclass
from typing import Annotated, Literal, Optional

import numpy as np

# Nothing here calls deep_scores, shallow_scores or train_mechanism, but
# perfbench/tracer.py rebinds them in this module, so the names stay.
from ..attacks import (
    _ALL_RANKS_NONE,
    AttackConfig,
    SelectionMethod,
    deep_scores,  # noqa: F401
    run_attack,
    select_items,
    selection_scores,
    shallow_scores,  # noqa: F401
    sweep_attacks,
    top_k_indices,
)
from ..bounds import BoundQuery, lower_bound
from ..core import _NORM_SLACK, BaseLearner, CostSpec, Goal, ModelParams, Sign, VictimSpec
from ..core import AtLeast, Count, LabelRange, Positive, Seed, _Range, _check_fields, _checked
from ..learners import (
    SolverError,
    train_base_logistic,
    train_base_ridge_constrained,
    train_mechanism,  # noqa: F401
)
from ..rng import (
    STAGE_DATA,
    STAGE_EVALSET,
    STAGE_MC_CLEAN,
    STAGE_MC_POISONED,
    STAGE_CURVE,
    STAGE_SWEEP,
    subseed,
    substream,
)
from .datasets import (
    build_nn_eval_set,
    gen_1d_dataset,
    gen_2d_dataset,
    gen_eval_grid_1d,
    gen_eval_grid_2d,
    load_csv_dataset,
    normalize_dataset,
    pick_extreme_eval_item,
    save_csv_dataset,
    write_csv,
)
from .montecarlo import estimate_attack_cost

__all__ = [
    "DataSource",
    "EvalSource",
    "CostDescriptor",
    "SweepSpec",
    "ExperimentConfig",
    "config_from_dict",
    "config_to_dict",
    "build_dataset",
    "build_eval_set",
    "build_cost",
    "conservative_clean_cost",
    "bound_for",
    "curve_iterations",
    "json_dumps",
    "run_experiment",
    "run_evaluation",
    "write_dataset_files",
]

@dataclass(frozen=True)
class DataSource:
    """Where the training set comes from."""

    kind: Literal["gen-1d", "gen-2d", "csv"]
    n: int = 0
    theta_star: tuple[float, float] = (1.0, 1.0)
    path: Optional[str] = None
    feature_columns: Optional[tuple[str, ...]] = None
    label_column: str = "y"
    label_map: Optional[dict[str, float]] = None
    normalize: bool = False
    normalize_labels: bool = False
    label_range: LabelRange = (0.0, 10.0)

    def __post_init__(self):
        _check_fields(self)
        if self.kind.startswith("gen") and self.n < 1:
            raise ValueError("generated data sources need n >= 1")
        if self.kind == "csv" and not self.path:
            raise ValueError("csv data source needs a path")
        if self.normalize_labels and not self.normalize:
            raise ValueError("normalize_labels needs normalize: true")


@dataclass(frozen=True)
class EvalSource:
    """Where the cost's evaluation set comes from (kind 'none' for
    parameter targeting with an explicit target)."""

    kind: Literal["grid-1d", "grid-2d", "nn-flip", "extreme-item", "csv", "none"] = "none"
    m: AtLeast(1) = 21
    count: Count = 10
    class_label: float = 1.0
    include_seed: bool = False
    extreme: Literal["min", "max"] = "min"
    target_label: float = 1.0
    path: Optional[str] = None
    feature_columns: Optional[tuple[str, ...]] = None
    label_column: str = "y"
    label_map: Optional[dict[str, float]] = None

    def __post_init__(self):
        _check_fields(self)
        if self.kind == "csv" and not self.path:
            raise ValueError("csv eval source needs a path")


@dataclass(frozen=True)
class CostDescriptor:
    """Config-level description of the attack goal; materialized into a
    CostSpec once data and evaluation set exist.

    target applies to parameter targeting only: an explicit vector (a
    nonempty list of finite numbers, stored as a tuple), or "fit-eval" to
    fit the base learner on the evaluation set.
    """

    goal: Goal
    loss: Literal["logistic", "squared"] = "logistic"
    target: object = None
    cbar: Optional[Positive] = None

    def __post_init__(self):
        _check_fields(self)
        target = self.target
        if self.goal is not Goal.PARAMETER_TARGETING:
            if target is not None:
                raise ValueError("target applies to parameter targeting only")
        elif not (isinstance(target, str) and target == "fit-eval"):
            if not isinstance(target, (list, tuple)) or len(target) == 0:
                raise ValueError(f"target must be 'fit-eval' or a nonempty list of numbers, got {target!r}")
            object.__setattr__(self, "target", _checked("target", target, tuple[float, ...]))


_SWEPT = _Range("two or more increasing numbers", lambda v: len(v) > 1 and all(a < b for a, b in zip(v, v[1:])))


@dataclass(frozen=True)
class SweepSpec:
    """A sweep over k, whose values are budgets (counts), or over epsilon,
    whose values are positive and stored as floats."""

    kind: Literal["k", "epsilon"]
    values: Annotated[tuple[float, ...], _SWEPT]

    def __post_init__(self):
        # entries first, so that a k sweep's are refused as counts
        values = _checked("values", self.values, tuple[Count if self.kind == "k" else Positive, ...])
        object.__setattr__(self, "values", values if self.kind == "k" else tuple(map(float, values)))
        _check_fields(self)


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole config tree. Its fields, and those of its section classes,
    are the config schema: see config_from_dict."""

    victim: VictimSpec
    cost: CostDescriptor
    data: DataSource
    attack: AttackConfig
    eval: EvalSource = EvalSource()
    seed: Seed = 0
    sweep: Optional[SweepSpec] = None
    curve_points: AtLeast(2) = 21

    def __post_init__(self):
        _check_fields(self)
        if self.sweep is not None and self.sweep.kind == "epsilon":
            for value in self.sweep.values:  # each swept victim must be valid
                dataclasses.replace(self.victim, epsilon=value)
        # a k sweep's values increase, so all but the last are below n
        if self.sweep is not None and self.sweep.kind == "k" and self.attack.selection is SelectionMethod.ALL:
            raise ValueError(_ALL_RANKS_NONE)


def _section_class(tp):
    """The section dataclass a field holds (unwrapping Optional), or None."""
    for t in (tp, *typing.get_args(tp)):
        if dataclasses.is_dataclass(t):
            return t
    return None


def _build_section(cls, raw, section, base_dir):
    """Construct a config dataclass from a mapping, rejecting unknown keys.

    A field with no default is required, and a null value counts as
    absent. Sections are built recursively, and ``path`` fields are
    resolved against base_dir and must exist; each dataclass checks its
    own field types.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"config section {section!r} must be a mapping")
    fields = dataclasses.fields(cls)
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    kwargs = {}
    for f in fields:
        value = raw.get(f.name)
        if value is None:
            if f.default is dataclasses.MISSING:
                raise ValueError(f"config section {section!r} needs {f.name!r}")
            continue
        sub = _section_class(f.type)
        if sub is not None:
            value = _build_section(sub, value, f.name, base_dir)
        elif f.name == "path" and isinstance(value, str):  # the dataclass rejects others
            if base_dir is not None and not os.path.isabs(value):
                value = os.path.join(base_dir, value)
            if not os.path.exists(value):
                raise ValueError(f"{section} file not found: {value}")
        kwargs[f.name] = value
    return cls(**kwargs)


def config_from_dict(raw, base_dir=None):
    """Build an ExperimentConfig from a plain config tree (e.g. parsed
    YAML). Unknown keys anywhere are an error. Relative data/eval paths
    are resolved against base_dir; referenced files must exist."""
    return _build_section(ExperimentConfig, raw, "top level", base_dir)


def config_to_dict(config):
    """Inverse of config_from_dict: a plain tree suitable for JSON/YAML.
    The config enums are str enums, which JSON writes as their values."""
    return json.loads(json.dumps(dataclasses.asdict(config)))


def _load_csv(src):
    """Read the CSV file of a csv data or eval source."""
    columns = list(src.feature_columns) if src.feature_columns else None
    return load_csv_dataset(src.path, columns, src.label_column, src.label_map)


def build_dataset(config):
    """Materialize the training set from the config's data source. The
    bounds and the attacks assume the feasible set: features in the unit
    ball and ridge labels in [-1, 1]; other data is rejected."""
    src = config.data
    if src.kind == "gen-1d":
        data = gen_1d_dataset(src.n, substream(config.seed, STAGE_DATA))
    elif src.kind == "gen-2d":
        data = gen_2d_dataset(src.n, np.asarray(src.theta_star, dtype=float), substream(config.seed, STAGE_DATA))
    else:
        data = _load_csv(src)
    label_fix = "; set normalize: true and normalize_labels: true"
    if src.normalize_labels:
        lo, hi = src.label_range
        label_fix = f"; label_range [{lo}, {hi}] must cover the labels' range [{data.y.min()}, {data.y.max()}]"
    elif src.normalize:
        label_fix = "; set normalize_labels: true"
    if src.normalize:
        data = normalize_dataset(data, src.normalize_labels, src.label_range)
    _require_feasible(data, config.victim, "data", ("; set normalize: true", label_fix))
    return data


def _require_feasible(data, victim, source, fixes=("", "")):
    """Reject a dataset outside the feasible set: a feature norm above 1
    (up to the projection's slack, as normalizing can round a norm a few
    ulps past 1), a ridge victim's label outside [-1, 1] or a logistic
    victim's label other than -1 and +1. The messages start with source;
    the first two end with the matching entry of fixes."""
    if np.linalg.norm(data.X, axis=1).max() > 1.0 + _NORM_SLACK:
        raise ValueError(f"{source}: a feature norm exceeds 1{fixes[0]}")
    if victim.base is BaseLearner.RIDGE and np.abs(data.y).max() > 1.0:
        raise ValueError(f"{source}: ridge labels must lie in [-1, 1]{fixes[1]}")
    if victim.base is BaseLearner.LOGISTIC and not np.all(np.abs(data.y) == 1.0):
        raise ValueError(f"{source}: logistic labels must be -1 or +1; map them with label_map")


def build_eval_set(config, data):
    """Materialize the evaluation set, or None for kind 'none'. A csv set,
    never normalized, must lie in the feasible set, as build_dataset's must."""
    ev = config.eval
    if ev.kind == "none":
        return None
    if ev.kind == "grid-1d":
        return gen_eval_grid_1d(ev.m)
    if ev.kind == "grid-2d":
        return gen_eval_grid_2d(ev.m)
    if ev.kind == "nn-flip":
        rng = substream(config.seed, STAGE_EVALSET)
        return build_nn_eval_set(data, rng, ev.class_label, ev.count, ev.include_seed)
    if ev.kind == "extreme-item":
        return pick_extreme_eval_item(data, ev.extreme, ev.target_label)
    eval_set = _load_csv(ev)
    fix = "; an eval CSV is not normalized, so its {} must already be on the training data's scale"
    _require_feasible(eval_set, config.victim, "eval", (fix.format("features"), fix.format("labels")))
    return eval_set


def _fit_target(victim, eval_set):
    if eval_set is None or len(eval_set) == 0:
        raise ValueError("target 'fit-eval' needs a nonempty evaluation set")
    if victim.base is BaseLearner.LOGISTIC:
        return train_base_logistic(eval_set, victim.lam)
    return train_base_ridge_constrained(eval_set, victim.lam, victim.rho)


def build_cost(config, data, eval_set):
    """Materialize the CostSpec for a built dataset and evaluation set."""
    desc = config.cost
    if desc.goal is Goal.PARAMETER_TARGETING:
        if desc.target == "fit-eval":
            target = _fit_target(config.victim, eval_set)
        else:
            target = ModelParams(np.asarray(desc.target, dtype=float))
        return CostSpec(desc.goal, target_model=target, loss=desc.loss, cbar=desc.cbar)
    if eval_set is None:
        raise ValueError(f"{desc.goal.value} needs an evaluation set (eval kind is 'none')")
    return CostSpec(desc.goal, eval_set=eval_set, loss=desc.loss, cbar=desc.cbar)


def conservative_clean_cost(estimate, sign):
    """Pessimistic clean-cost endpoint fed into the bound: two standard
    errors below the mean, clamped into the cost's sign range. Keeps the
    emitted bound honest when J(D) is itself only estimated."""
    v = estimate.mean - 2.0 * estimate.stderr
    if Sign(sign) is Sign.NON_NEGATIVE:
        return max(0.0, v)
    return min(0.0, v)


def bound_for(victim, cost, k, j_clean):
    """Theoretical lower bound on the k-item attack cost for this victim."""
    q = BoundQuery(j_clean, victim.epsilon, k=k, delta=victim.delta, cbar=cost.cbar, sign=cost.sign)
    return lower_bound(q)


def curve_iterations(T, points):
    """Evenly spaced iteration indices from 0 to T inclusive."""
    return np.unique(np.round(np.linspace(0.0, T, points)).astype(int))


def _finite_json(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _finite_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def json_dumps(value, **kwargs):
    """JSON text of value. JSON has no infinity or NaN, so non-finite
    floats are written as the strings "inf", "-inf" and "nan"."""
    return json.dumps(_finite_json(value), allow_nan=False, **kwargs)


def _estimate_dict(est):
    return {"mean": est.mean, "stderr": est.stderr, "samples": est.samples}


def _run(config, out_dir, key, mode_rows):
    """Build the data and cost, collect the mode's costs.csv rows, and
    write costs.csv and summary.json; returns the summary.

    mode_rows(config, data, cost, out_dir, summary) yields
    (key value, estimate, bound) per row and records its details in the
    summary. A solver failure ends the rows early and is recorded in the
    summary after any error the mode recorded; the rows before it are
    kept. The first file written makes out_dir, so a refused run leaves none.
    """
    t0 = time.perf_counter()
    data = build_dataset(config)
    eval_set = build_eval_set(config, data)
    cost = build_cost(config, data, eval_set)
    if mode_rows is not _evaluation_rows:  # k, or a k sweep's largest value, must fit n
        sweep, atk = config.sweep, config.attack
        k = sweep.values[-1] if sweep is not None and sweep.kind == "k" else atk.k
        if k > data.n:
            raise ValueError(f"budget k={k} exceeds dataset size n={data.n}")
        if atk.selection is SelectionMethod.ALL and k != data.n:
            raise ValueError(_ALL_RANKS_NONE)
    summary = {
        "config": config_to_dict(config),
        "seed": config.seed,
        "n": data.n,
        "dim": data.dim,
        "out_dir": os.path.abspath(out_dir),
        "error": None,
    }
    rows = []
    try:
        for value, est, bound in mode_rows(config, data, cost, out_dir, summary):
            rows.append([value, est.mean, est.stderr, bound])
    except SolverError as exc:
        failure = f"solver failure after {len(rows)} cost rows: {exc}"
        summary["error"] = "; ".join(filter(None, (summary["error"], failure)))
    write_csv(os.path.join(out_dir, "costs.csv"), [key, "mean", "stderr", "lower_bound"], rows)
    summary["runtime_seconds"] = time.perf_counter() - t0
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(json_dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _clean_cost(config, victim, data, cost, *key):
    """Monte-Carlo estimate of J(D) and the conservative endpoint of it
    that the bound takes."""
    est = estimate_attack_cost(
        victim, data, cost, config.attack.T_eval, subseed(config.seed, STAGE_MC_CLEAN, *key)
    )
    return est, conservative_clean_cost(est, cost.sign)


def _evaluation_rows(config, data, cost, out_dir, summary):
    est, j_clean = _clean_cost(config, config.victim, data, cost)
    summary["clean_cost"] = _estimate_dict(est)
    summary["lower_bound"] = bound_for(config.victim, cost, config.attack.k, j_clean)
    yield 0, est, summary["lower_bound"]


def _curve_rows(config, data, cost, out_dir, summary):
    victim, atk = config.victim, config.attack
    yield from _evaluation_rows(config, data, cost, out_dir, summary)
    summary["curve"] = [{"iteration": 0, **summary["clean_cost"]}]
    trace = run_attack(victim, data, cost, atk, config.seed, record=curve_iterations(atk.T, config.curve_points))
    summary["selected"] = [int(i) for i in trace.selected]
    if trace.error is None:
        model = trace.final_model
        summary["final_surrogate_cost"] = float(trace.surrogate_costs[-1])
        summary["final_surrogate_model"] = {"theta": [float(v) for v in model.theta], "mu": model.mu}
    else:
        summary["error"] = trace.error
    rows = (
        (t, item, *x, y)
        for t, feats, labels in zip(trace.iterations.tolist(), trace.features, trace.labels)
        for item, x, y in zip(trace.selected.tolist(), feats.tolist(), labels.tolist())
    )
    header = ["iteration", "item"] + [f"x{j}" for j in range(data.dim)] + ["y"]
    write_csv(os.path.join(out_dir, "trace.csv"), header, rows)
    for t in trace.iterations[1:]:
        seed = subseed(config.seed, STAGE_CURVE, int(t))
        est = estimate_attack_cost(victim, trace.dataset_at(t), cost, atk.T_eval, seed)
        summary["curve"].append({"iteration": int(t), **_estimate_dict(est)})
        yield t, est, summary["lower_bound"]
    summary["final_cost"] = summary["curve"][-1]


def _sweep_rows(config, data, cost, out_dir, summary):
    """One row per swept value: attack with that k (items ranked once, by
    the configured selection) or that epsilon (selected afresh, in row
    order, against its own clean estimate), then estimate the poisoned
    cost. A k sweep estimates the clean cost and bounds every row before
    it ranks the items, so a cbar below the clean cost stops it there; an
    epsilon sweep does so per row, after the attacks. The rows' attacks
    run in lockstep (sweep_attacks). The first row whose selection or
    attack fails ends the sweep: the rows before it are kept, and it is
    neither estimated nor written."""
    kind, values = config.sweep.kind, config.sweep.values
    victim, atk = config.victim, config.attack
    seeds = [subseed(config.seed, STAGE_SWEEP, i) for i in range(len(values))]
    failure = None
    if kind == "k":
        clean_est, j_clean = _clean_cost(config, victim, data, cost)
        summary["clean_cost"] = _estimate_dict(clean_est)
        bounds = [bound_for(victim, cost, value, j_clean) for value in values]
        scores = selection_scores(victim, data, cost, atk, config.seed)
        victims = [victim] * len(values)
        selections = [top_k_indices(scores, value) for value in values]
    else:
        victims = [dataclasses.replace(victim, epsilon=value) for value in values]
        bounds, selections = [], []
        try:
            for row_victim, seed in zip(victims, seeds):
                selections.append(select_items(row_victim, data, cost, atk, seed))
        except SolverError as exc:
            failure = exc
    scales = [row_victim.noise_scale_for(data.n) for row_victim in victims[: len(selections)]]
    finals, error = sweep_attacks(victim, data, cost, atk, selections, seeds, scales)
    summary["sweep_rows"] = []
    for i, (value, row_victim, final_data) in enumerate(zip(values, victims, finals)):
        row = {kind: value}
        if kind == "epsilon":
            clean_est, j_clean = _clean_cost(config, row_victim, data, cost, i)
            row["clean"] = _estimate_dict(clean_est)
            bounds.append(bound_for(row_victim, cost, atk.k, j_clean))
        seed = subseed(config.seed, STAGE_MC_POISONED, i)
        est = estimate_attack_cost(row_victim, final_data, cost, atk.T_eval, seed)
        row["lower_bound"] = bounds[i]
        summary["sweep_rows"].append({**row, **_estimate_dict(est)})
        yield value, est, row["lower_bound"]
    if error or failure:  # a failed attack's row comes before a failed selection's
        raise SolverError(f"{kind}={values[len(finals)]}: {error or failure}")


def run_experiment(config, out_dir):
    """Run the configured experiment and write its report files.

    Returns the summary dict (also written to summary.json). Solver
    failures are recorded in the summary; partial outputs are retained.
    """
    if config.sweep is None:
        return _run(config, out_dir, "iteration", _curve_rows)
    return _run(config, out_dir, config.sweep.kind, _sweep_rows)


def run_evaluation(config, out_dir):
    """Estimate the clean cost J(D) and its bound without attacking."""
    return _run(config, out_dir, "iteration", _evaluation_rows)


def write_dataset_files(config, out_dir):
    """Materialize the config's data (and evaluation set, if any) to CSVs."""
    data = build_dataset(config)
    eval_set = build_eval_set(config, data)
    save_csv_dataset(data, os.path.join(out_dir, "dataset.csv"))
    written = {"dataset": os.path.join(out_dir, "dataset.csv")}
    if eval_set is not None and len(eval_set) > 0:
        save_csv_dataset(eval_set, os.path.join(out_dir, "eval.csv"))
        written["eval"] = os.path.join(out_dir, "eval.csv")
    return written
