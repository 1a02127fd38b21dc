"""The names perfbench/tracer.py rebinds must exist in the library.

The benchmark's tracer wraps library functions by (module, attribute),
reads train_mechanism's and batch_item_gradients' arguments by position,
and reads attributes of run_attack's and estimate_attack_cost's results,
so a refactor that renames or reorders them breaks the benchmark without
failing any library test.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

from conftest import random_classification_data
from dppoison import (
    AttackConfig,
    CostSpec,
    Goal,
    ModelParams,
    VictimSpec,
    batch_item_gradients,
    cost_gradient,
    relaxed_attack,
    run_attack,
    train_mechanism,
)
from dppoison import attacks
from dppoison.harness import estimate_attack_cost

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
TARGETS = TRACER._TARGETS


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in TARGETS])
def test_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_train_mechanism_positions():
    # the tracer classifies a solve from args[2] (the noise) and the
    # warm_start keyword, which is keyword-only, so no call passes it by
    # position
    signature = inspect.signature(train_mechanism)
    assert list(signature.parameters)[2] == "b"
    assert signature.parameters["warm_start"].kind is inspect.Parameter.KEYWORD_ONLY
    rng = np.random.default_rng(0)
    data = random_classification_data(rng, n=8, d=2)
    victim = VictimSpec("objective", "logistic", lam=1.0, epsilon=1.0)
    noise = rng.standard_normal(2)
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return train_mechanism(*args, **kwargs)

    cold = recorded(victim, data, noise)
    recorded(victim, data, noise, warm_start=cold)
    recorded(victim, data, np.zeros(2), warm_start=cold)
    kinds = [TRACER._solve_kind(args, kwargs) for args, kwargs in calls]
    assert kinds == ["learners.solve_cold", "learners.solve_warm", "learners.solve_surrogate"]
    with pytest.raises(TypeError):
        train_mechanism(victim, data, noise, cold)


def test_noise_stack_is_a_cold_solve():
    # the Monte-Carlo estimate trains a block of draws, padded with zero
    # rows, in one call
    stack = np.zeros((32, 3))
    stack[:5] = np.random.default_rng(0).standard_normal((5, 3))
    assert TRACER._solve_kind((None, None, stack), {}) == "learners.solve_cold"
    assert TRACER._solve_kind((), {"b": stack, "warm_start": None}) == "learners.solve_cold"


def test_batch_item_gradients_positions():
    # the tracer counts items from args[5] (the indices) and compares them
    # with args[1] (the data) to spot an all-item call
    params = list(inspect.signature(batch_item_gradients).parameters)
    assert params[1] == "data"
    assert params[5] == "indices"


def test_counter_hooks_read_library_results():
    # _batch_items, _attack_counts and _mc_draws read the arguments and
    # results of real calls: the data's n, AttackTrace's iterations,
    # features, labels and surrogate_costs, and CostEstimate.samples
    rng = np.random.default_rng(0)
    data = random_classification_data(rng, n=6, d=2)
    victim = VictimSpec("objective", "logistic", lam=1.0, epsilon=1.0)
    cost = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=ModelParams([0.3, -0.2]))
    model = train_mechanism(victim, data, np.zeros(2))
    args = (victim, data, model, np.zeros(2), cost_gradient(cost, model), np.arange(6))
    assert TRACER._batch_items(args, {}, batch_item_gradients(*args), 0.5) == {
        "gradients.batch_item_gradients.items": 6,
        "gradients.all_items.calls": 1,
        "gradients.all_items.s": 0.5,
    }
    kwargs = {"data": data, "indices": np.arange(2)}
    assert TRACER._batch_items((), kwargs, None, 0.5) == {"gradients.batch_item_gradients.items": 2}

    trace = run_attack(victim, data, cost, AttackConfig(k=2, T=3, selection="shallow"), seed=1)
    assert trace.error is None
    snapshot = trace.features.nbytes + trace.labels.nbytes + trace.surrogate_costs.nbytes
    assert TRACER._attack_counts((), {}, trace, 0.0) == {
        "attacks.sgd_steps": 3,
        "attacks.surrogate_costs": 2,
        "attacks.snapshot_bytes_max": snapshot,
    }

    estimate = estimate_attack_cost(victim, data, cost, 5, seed=0)
    assert TRACER._mc_draws((), {}, estimate, 0.0) == {"montecarlo.draws": 5}


@pytest.mark.parametrize("mechanism", ["objective", "output"])
def test_attack_loops_pass_index_arrays(monkeypatch, mechanism):
    # the tracer takes len() of the indices of every batch_item_gradients
    # call and compares it with the data's n; a lane that moves every item
    # (the relaxed attack) passes slice(None) to with_modified, but must
    # still pass its items to the gradients as an integer index array. A
    # lone logistic lane calls batch_item_gradients every step (a ridge
    # lane takes its gradients from its own statistics)
    rng = np.random.default_rng(3)
    data = random_classification_data(rng, n=9, d=2)
    victim = VictimSpec(mechanism, "logistic", lam=1.0, epsilon=1.0)
    cost = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=ModelParams([0.3, -0.2]))
    seen = []

    def recorded(*args, **kwargs):
        seen.append(TRACER._batch_items(args, kwargs, None, 0.5))
        indices = args[5] if len(args) > 5 else kwargs["indices"]
        assert isinstance(indices, np.ndarray) and indices.dtype.kind == "i"
        return batch_item_gradients(*args, **kwargs)

    monkeypatch.setattr(attacks, "batch_item_gradients", recorded)
    relaxed_attack(victim, data, cost, 1e-4, 0.5, 4, "dpv", np.random.default_rng(0))
    run_attack(victim, data, cost, AttackConfig(k=3, T=4, selection="deep", relax_T=4), seed=2)
    assert len(seen) == 12
    assert all(counts["gradients.all_items.calls"] == 1 for counts in seen[:8])
    assert all(counts["gradients.batch_item_gradients.items"] == 3 for counts in seen[8:])
