"""Rules derived from the config dataclasses and the package exports.

The field checks are parametrized over each dataclass's own fields, so a
field added later is covered without a new list.
"""

import dataclasses
import enum
import importlib
import math
import os
import re
import sys
import typing

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
    BoundQuery(0.0, 0.1),
    COST,
    DATA,
    EvalSource(),
    ExperimentConfig(VICTIM, COST, DATA, ATTACK),
]
UNBOUNDED = {(BoundQuery, "tau")}
CONFIGS = VALID + [SweepSpec("k", (1, 2))]
CONFIGS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def unoptional(tp):
    return typing.get_args(tp)[0] if typing.get_origin(tp) is typing.Union else tp


def rule(tp):
    """The class a field's annotation checks: without its Optional and its
    Annotated range, and dict for a dict[K, V]."""
    tp = unoptional(tp)
    if typing.get_origin(tp) is typing.Annotated:
        tp = typing.get_args(tp)[0]
    return dict if typing.get_origin(tp) is dict else tp


def fields_of(types):
    return [
        pytest.param(obj, f.name, id=f"{type(obj).__name__}.{f.name}")
        for obj in VALID
        for f in dataclasses.fields(obj)
        if rule(f.type) in types and (type(obj), f.name) not in UNBOUNDED
    ]


@pytest.mark.parametrize("value", [2.5, True, "3"])
@pytest.mark.parametrize("obj, name", fields_of((int,)))
def test_int_field_rejects_non_integers(obj, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        dataclasses.replace(obj, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("obj, name", fields_of((float,)))
def test_float_field_rejects_non_finite(obj, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        dataclasses.replace(obj, **{name: value})


def test_every_config_dataclass_has_checked_fields():
    # the parametrizations above are not empty for any class with scalars
    checked = {p.values[0].__class__ for p in fields_of((int, float))}
    assert checked == {type(obj) for obj in VALID}


def test_unbounded_tau_and_numpy_integers_accepted():
    assert BoundQuery(0.5, 0.1, tau=math.inf).tau == math.inf
    for tau in (math.nan, -math.inf):  # only +inf passes tau's range
        with pytest.raises(ValueError, match=f"^tau must be at least 1, got {tau}$"):
            BoundQuery(0.5, 0.1, tau=tau)
    assert AttackConfig(k=np.int64(2), T=np.int32(5)).k == 2
    config = ExperimentConfig(VICTIM, COST, DATA, ATTACK, seed=np.int64(4))
    assert config.seed == 4 and type(config.seed) is int
    assert VictimSpec("output", "ridge", lam=1, epsilon=1, rho=1).lam == 1
    # a numpy float is stored as a plain float, and a Python int stays an int
    victim = VictimSpec("objective", "logistic", lam=np.float32(10.0), epsilon=np.float64(0.1), delta=np.float16(0))
    assert (victim.lam, victim.epsilon, victim.delta) == (10.0, 0.1, 0.0)
    assert all(type(v) is float for v in (victim.lam, victim.epsilon, victim.delta))
    assert type(VictimSpec("objective", "logistic", lam=10, epsilon=1).lam) is int


def ranged_fields():
    """(obj, name, range): every field whose annotation carries a range."""
    params = []
    for obj in VALID:
        for f in dataclasses.fields(obj):
            tp = unoptional(f.type)
            if typing.get_origin(tp) is typing.Annotated:
                params.append(pytest.param(obj, f.name, typing.get_args(tp)[1], id=f"{type(obj).__name__}.{f.name}"))
    return params


# Each range's values just outside it, and its boundary value (for an open
# bound, the least normal float inside it).
RANGE_CASES = {
    "positive": ((0.0, -0.0, -1.0), sys.float_info.min),
    "nonnegative": ((-1,), 0),
    "in [0, 1)": ((-sys.float_info.min, 1.0), 0.0),
    "at least 1": ((0,), 1),
    "at least 2": ((1,), 2),
    "in [0, 2**128)": ((-1, 2**128, 2**128 + 1), 0),
}


@pytest.mark.parametrize("obj, name, limit", ranged_fields())
def test_range_field_takes_only_its_range(obj, name, limit):
    outside, boundary = RANGE_CASES[limit.text]
    for value in outside:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {limit.text}, got {value!r}')}$"):
            dataclasses.replace(obj, **{name: value})
    assert getattr(dataclasses.replace(obj, **{name: boundary}), name) == boundary


def test_ranges_are_named_in_the_annotations():
    ranges = {p.id: p.values[2].text for p in ranged_fields()}
    assert ranges == {
        "AttackConfig.k": "nonnegative", "AttackConfig.T": "nonnegative", "AttackConfig.eta": "positive",
        "AttackConfig.m_select": "at least 1", "AttackConfig.alpha": "positive",
        "AttackConfig.T_eval": "at least 2", "AttackConfig.relax_T": "nonnegative",
        "VictimSpec.lam": "positive", "VictimSpec.epsilon": "positive", "VictimSpec.delta": "in [0, 1)",
        "VictimSpec.noise_scale": "positive", "CostSpec.cbar": "positive", "CostDescriptor.cbar": "positive",
        "BoundQuery.epsilon": "positive", "BoundQuery.delta": "in [0, 1)", "BoundQuery.k": "nonnegative",
        "BoundQuery.cbar": "positive", "BoundQuery.tau": "at least 1",
        "ExperimentConfig.curve_points": "at least 2", "ExperimentConfig.seed": "in [0, 2**128)",
    }


@pytest.mark.parametrize("seed", [-1, 2**128, 2**128 + 1])
def test_yaml_seed_that_would_alias_another_is_refused(seed):
    # rng folds seeds mod 2**128, so these would replay the streams of
    # 2**128 - 1, 0 and 1 (a config built in Python meets the same range in
    # test_range_field_takes_only_its_range)
    with open(os.path.join(CONFIGS_DIR, "synth1d_flip.yaml"), encoding="utf-8") as fh:
        text = fh.read()
    assert "\nseed: " in text

    def with_seed(value):
        return yaml.safe_load(re.sub(r"\nseed: \d+", f"\nseed: {value}", text))

    with pytest.raises(ValueError, match=f"^{re.escape(f'seed must be in [0, 2**128), got {seed}')}$"):
        config_from_dict(with_seed(seed), base_dir=CONFIGS_DIR)
    assert config_from_dict(with_seed(2**128 - 1), base_dir=CONFIGS_DIR).seed == 2**128 - 1


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


def fields_whose_rule(test):
    return [
        pytest.param(obj, f.name, rule(f.type), id=f"{type(obj).__name__}.{f.name}")
        for obj in CONFIGS
        for f in dataclasses.fields(obj)
        if test(rule(f.type))
    ]


def is_literal(tp):
    return typing.get_origin(tp) is typing.Literal


def is_enum(tp):
    return isinstance(tp, type) and issubclass(tp, enum.Enum)


def is_plain_class(tp):
    return isinstance(tp, type) and tp not in (int, float, object) and not is_enum(tp)


@pytest.mark.parametrize("obj, name, tp", fields_whose_rule(is_literal))
def test_literal_field_takes_only_its_choices(obj, name, tp):
    message = f"{name} must be one of {typing.get_args(tp)}, got 'bogus'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(obj, **{name: "bogus"})


def test_kinds_losses_and_extreme_are_literals():
    literals = {p.id for p in fields_whose_rule(is_literal)}
    assert literals == {
        "DataSource.kind", "EvalSource.kind", "EvalSource.extreme", "CostSpec.loss",
        "CostDescriptor.loss", "SweepSpec.kind",
    }


@pytest.mark.parametrize("obj, name, tp", fields_whose_rule(is_enum))
def test_enum_field_stores_its_member(obj, name, tp):
    member = getattr(obj, name)
    assert type(member) is tp
    assert getattr(dataclasses.replace(obj, **{name: member.value}), name) is member


@pytest.mark.parametrize("obj, name, tp", fields_whose_rule(lambda tp: tp is int))
def test_int_field_stores_a_plain_int(obj, name, tp):
    value = getattr(dataclasses.replace(obj, **{name: np.int64(3)}), name)
    assert value == 3 and type(value) is int


@pytest.mark.parametrize("value", ["1e-1", True, [0.1]])
@pytest.mark.parametrize("obj, name, tp", fields_whose_rule(lambda tp: tp is float))
def test_float_field_takes_only_numbers(obj, name, tp, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a number, got {value!r}')}$"):
        dataclasses.replace(obj, **{name: value})


def typed_fields():
    """(obj, name, class, value): every field annotated with a plain class
    (bool, str, tuple, dict, a section) and a value it must refuse."""
    return [
        pytest.param(*p.values, value, id=f"{p.id}-{value!r}")
        for p in fields_whose_rule(is_plain_class)
        for value in (5, "x0", [1, 2])
        if not isinstance(value, p.values[2]) and not (p.values[2] is tuple and isinstance(value, list))
    ]


@pytest.mark.parametrize("obj, name, tp, value", typed_fields())
def test_typed_field_takes_only_its_class(obj, name, tp, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a {tp.__name__}, got {value!r}')}$"):
        dataclasses.replace(obj, **{name: value})


@pytest.mark.parametrize("obj, name, tp", fields_whose_rule(lambda tp: tp is tuple))
def test_tuple_field_stores_a_list_as_a_tuple(obj, name, tp):
    assert getattr(dataclasses.replace(obj, **{name: [1, 2]}), name) == (1, 2)


@pytest.mark.parametrize(
    "section, text, message",
    [
        ("victim", "epsilon: 1e-1", "epsilon must be a number, got '1e-1'"),
        ("victim", "lam: true", "lam must be a number, got True"),
        ("eval", 'class_label: "1"', "class_label must be a number, got '1'"),
        ("eval", "extreme: median", "extreme must be one of ('min', 'max'), got 'median'"),
        ("data", "kind: gen-3d", "kind must be one of ('gen-1d', 'gen-2d', 'csv'), got 'gen-3d'"),
        ("data", "{kind: csv, path: 5}", "path must be a str, got 5"),
        ("data", "normalize: 'yes'", "normalize must be a bool, got 'yes'"),
        ("data", "feature_columns: x0", "feature_columns must be a tuple, got 'x0'"),
        ("data", "label_range: 5", "label_range must be a tuple, got 5"),
        ("data", "label_map: [1, 2]", "label_map must be a dict, got [1, 2]"),
        ("data", "label_map: {Abnormal: high}", "label_map['Abnormal'] must be a number, got 'high'"),
        ("data", "label_map: {Abnormal: yes}", "label_map['Abnormal'] must be a number, got True"),
        ("data", "label_map: {0: -1.0, 1: 1.0}", "label_map key must be a str, got 0"),
        ("eval", "label_map: {Normal: .nan}", "label_map['Normal'] must be finite, got nan"),
        ("cost", "{goal: parameter-targeting, target: {a: 1}}",
         "target must be 'fit-eval' or a nonempty list of numbers, got {'a': 1}"),
        ("cost", "{goal: parameter-targeting, target: fit-evl}",
         "target must be 'fit-eval' or a nonempty list of numbers, got 'fit-evl'"),
        ("cost", "{goal: parameter-targeting, target: []}",
         "target must be 'fit-eval' or a nonempty list of numbers, got []"),
        ("cost", "{goal: parameter-targeting, target: [1.0, .nan]}", "target[1] must be finite, got nan"),
        ("cost", "{goal: parameter-targeting, target: [true]}", "target[0] must be a number, got True"),
        ("cost", "loss: hinge", "loss must be one of ('logistic', 'squared'), got 'hinge'"),
        ("sweep", "{kind: n, values: [1, 2]}", "kind must be one of ('k', 'epsilon'), got 'n'"),
        ("sweep", "{kind: k, values: 5}", "values must be a tuple, got 5"),
        ("sweep", "{kind: epsilon, values: [a, b]}", "epsilon sweep values must be finite and positive"),
    ],
)
def test_yaml_of_the_wrong_type_is_refused_at_load(section, text, message):
    with open(os.path.join(CONFIGS_DIR, "synth1d_flip.yaml"), encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw.setdefault(section, {}).update(yaml.safe_load(text))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict(raw, base_dir=CONFIGS_DIR)


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
