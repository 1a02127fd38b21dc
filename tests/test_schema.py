"""Rules derived from the config dataclasses and the package exports.

The field checks are parametrized over each dataclass's own fields, so a
field added later is covered without a new list.
"""

import dataclasses
import importlib
import math
from typing import Optional

import numpy as np
import pytest
import yaml

import dppoison
import dppoison.harness
from dppoison import AttackConfig, BoundQuery, CostSpec, Goal, ModelParams, VictimSpec
from dppoison.harness import CostDescriptor, DataSource, EvalSource, ExperimentConfig, SweepSpec, config_from_dict

VICTIM = VictimSpec("objective", "logistic", lam=1.0, epsilon=0.1)
ATTACK = AttackConfig(k=2, T=5)
COST = CostDescriptor("label-aversion")
DATA = DataSource("gen-1d", n=3)
VALID = [
    ATTACK,
    VICTIM,
    CostSpec(Goal.PARAMETER_TARGETING, target_model=ModelParams([0.0])),
    BoundQuery(0.5, 0.1),
    COST,
    DATA,
    EvalSource(),
    ExperimentConfig(VICTIM, COST, DATA, ATTACK),
]
UNBOUNDED = {(BoundQuery, "tau")}


def fields_of(types):
    return [
        pytest.param(obj, f.name, id=f"{type(obj).__name__}.{f.name}")
        for obj in VALID
        for f in dataclasses.fields(obj)
        if f.type in types and (type(obj), f.name) not in UNBOUNDED
    ]


@pytest.mark.parametrize("value", [2.5, True, "3"])
@pytest.mark.parametrize("obj, name", fields_of((int, Optional[int])))
def test_int_field_rejects_non_integers(obj, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        dataclasses.replace(obj, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("obj, name", fields_of((float, Optional[float])))
def test_float_field_rejects_non_finite(obj, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        dataclasses.replace(obj, **{name: value})


def test_every_config_dataclass_has_checked_fields():
    # the parametrizations above are not empty for any class with scalars
    checked = {p.values[0].__class__ for p in fields_of((int, Optional[int], float, Optional[float]))}
    assert checked == {type(obj) for obj in VALID}


def test_unbounded_tau_and_numpy_integers_accepted():
    assert BoundQuery(0.5, 0.1, tau=math.inf).tau == math.inf
    assert AttackConfig(k=np.int64(2), T=np.int32(5)).k == 2
    config = ExperimentConfig(VICTIM, COST, DATA, ATTACK, seed=np.int64(4))
    assert config.seed == 4 and type(config.seed) is int
    assert VictimSpec("output", "ridge", lam=1, epsilon=1, rho=1).lam == 1


@pytest.mark.parametrize("values", [(True, 2), (1.0, 2), (np.float64(1.0), 2), (-1, 2)])
def test_k_sweep_takes_nonnegative_integers_only(values):
    with pytest.raises(ValueError, match="k sweep values must be nonnegative integers"):
        SweepSpec("k", values)


def test_k_sweep_rejects_a_bool_at_load():
    raw = {"victim": {"mechanism": "objective", "base": "logistic", "lam": 1.0, "epsilon": 0.1}}
    raw.update(cost={"goal": "label-aversion"}, data={"kind": "gen-1d", "n": 3})
    raw.update(attack={"k": 2, "T": 5, "selection": "shallow"})
    raw["sweep"] = yaml.safe_load("{kind: k, values: [true, 2]}")
    with pytest.raises(ValueError, match="k sweep values must be nonnegative integers"):
        config_from_dict(raw)
    raw["sweep"]["values"] = [np.int64(1), 2]
    values = config_from_dict(raw).sweep.values
    assert values == (1, 2) and all(type(v) is int for v in values)


# The names each package exported before its __all__ was derived from its
# modules' lists; none may be lost.
TOP_LEVEL_NAMES = """
AttackConfig AttackMode BaseLearner BoundQuery CostSpec Dataset Goal Mechanism ModelParams
SelectionMethod Sign SolverError VictimSpec batch_item_gradients cost_gradient eval_cost
finite_difference_oracle lower_bound min_items modification_distances project_rows_inplace
sigmoid softplus relaxed_attack run_attack sample_noise deep_scores shallow_scores
top_k_indices train_base_logistic train_base_ridge_constrained train_mechanism __version__
""".split()
HARNESS_NAMES = """
CostEstimate build_cost build_dataset build_eval_set build_nn_eval_set config_from_dict
config_to_dict curve_iterations estimate_attack_cost gen_1d_dataset gen_2d_dataset
gen_eval_grid_1d gen_eval_grid_2d load_csv_dataset normalize_dataset pick_extreme_eval_item
run_evaluation run_experiment save_csv_dataset write_dataset_files
""".split()


@pytest.mark.parametrize(
    "package, modules, extra, names",
    [
        (dppoison, ["attacks", "bounds", "core", "gradients", "learners"], ["__version__"], TOP_LEVEL_NAMES),
        (dppoison.harness, ["datasets", "experiment", "montecarlo"], [], HARNESS_NAMES),
    ],
    ids=["dppoison", "harness"],
)
def test_package_exports_its_modules_lists(package, modules, extra, names):
    assert (len(TOP_LEVEL_NAMES), len(HARNESS_NAMES)) == (33, 20)
    assert set(names) <= set(package.__all__)
    module_names = [n for m in modules for n in importlib.import_module(f"{package.__name__}.{m}").__all__]
    assert len(package.__all__) == len(set(package.__all__))
    assert sorted(package.__all__) == sorted(module_names + extra)
    for name in package.__all__:
        assert hasattr(package, name)
