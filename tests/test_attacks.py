"""Item selection and the poisoning loops."""

import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest

from conftest import random_classification_data, random_cost, random_regression_data
from dppoison import (
    AttackConfig,
    AttackMode,
    CostSpec,
    Dataset,
    Goal,
    ModelParams,
    SelectionMethod,
    SolverError,
    VictimSpec,
    batch_item_gradients,
    cost_gradient,
    deep_scores,
    eval_cost,
    modification_distances,
    relaxed_attack,
    run_attack,
    shallow_scores,
    top_k_indices,
    train_mechanism,
)
from dppoison import attacks, learners
from dppoison.harness import gen_1d_dataset, gen_2d_dataset, gen_eval_grid_1d, gen_eval_grid_2d
from dppoison.rng import STAGE_DATA, STAGE_SGD, substream


def small_logistic_setup(seed=0, n=15, mechanism="objective"):
    rng = np.random.default_rng(seed)
    data = random_classification_data(rng, n=n, d=2)
    victim = VictimSpec(mechanism, "logistic", lam=1.0, epsilon=1.0)
    target = ModelParams(rng.standard_normal(2))
    cost = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=target)
    return victim, data, cost


class TestTopK:
    def test_basic_ranking(self):
        np.testing.assert_array_equal(top_k_indices([0.1, 3.0, 0.2, 2.0], 2), [1, 3])

    def test_ties_break_toward_lower_index(self):
        np.testing.assert_array_equal(top_k_indices([1.0, 3.0, 3.0, 2.0], 2), [1, 2])
        np.testing.assert_array_equal(top_k_indices([2.0, 2.0, 2.0], 2), [0, 1])

    def test_edges(self):
        assert len(top_k_indices([1.0, 2.0], 0)) == 0
        np.testing.assert_array_equal(top_k_indices([1.0, 2.0, 3.0], 3), [0, 1, 2])

    def test_result_sorted_ascending(self):
        got = top_k_indices([5.0, 1.0, 4.0, 2.0, 3.0], 3)
        np.testing.assert_array_equal(got, np.sort(got))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_indices([1.0], 2)
        with pytest.raises(ValueError):
            top_k_indices([1.0], -1)


class TestShallowSelection:
    def test_sv_matches_brute_force_ranking(self):
        victim, data, cost = small_logistic_setup(1)
        model = train_mechanism(victim, data, np.zeros(2))
        cg = cost_gradient(cost, model)
        feats, _ = batch_item_gradients(
            victim, data, model, np.zeros(2), cg, np.arange(data.n)
        )
        oracle_scores = np.linalg.norm(feats, axis=1)
        rng = substream(0, 2)
        got = top_k_indices(shallow_scores(victim, data, cost, AttackMode.SV, 10, rng), 5)
        np.testing.assert_array_equal(got, top_k_indices(oracle_scores, 5))

    def test_ridge_scores_include_label_component(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((8, 2))
        X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
        data = Dataset(X, rng.uniform(-1, 1, 8))
        victim = VictimSpec("objective", "ridge", lam=1.0, epsilon=1.0, rho=0.5)
        cost = CostSpec(
            goal=Goal.PARAMETER_TARGETING, target_model=ModelParams([0.3, -0.2]), loss="squared"
        )
        model = train_mechanism(victim, data, np.zeros(2))
        cg = cost_gradient(cost, model)
        feats, labs = batch_item_gradients(
            victim, data, model, np.zeros(2), cg, np.arange(data.n)
        )
        oracle = np.sqrt(np.einsum("ij,ij->i", feats, feats) + labs**2)
        got = shallow_scores(victim, data, cost, AttackMode.SV, 1, np.random.default_rng(0))
        np.testing.assert_allclose(got, oracle, rtol=1e-12)

    def test_dpv_with_tiny_noise_approaches_sv(self):
        victim, data, cost = small_logistic_setup(3)
        quiet = VictimSpec("objective", "logistic", lam=1.0, epsilon=1.0, noise_scale=1e-12)
        sv = shallow_scores(victim, data, cost, AttackMode.SV, 1, np.random.default_rng(0))
        dpv = shallow_scores(quiet, data, cost, AttackMode.DPV, 20, np.random.default_rng(0))
        np.testing.assert_allclose(dpv, sv, atol=1e-6)

    @pytest.mark.parametrize("mode", ["dpv", "sv"])
    @pytest.mark.parametrize("m_select", [0, -3])
    def test_invalid_m_select(self, monkeypatch, mode, m_select):
        # zero draws would average to all-nan scores, as AttackConfig refuses
        victim, data, cost = small_logistic_setup(3)
        monkeypatch.setattr(attacks, "train_mechanism", no_solve)
        with pytest.raises(ValueError, match=rf"^m_select must be at least 1, got {m_select}$"):
            shallow_scores(victim, data, cost, mode, m_select, np.random.default_rng(0))

    def test_output_draws_share_one_base_solve(self, monkeypatch):
        # the base model is solved once for the dataset's cache (the noiseless
        # solve from zero, then the draw-free solve from it), not once a draw
        victim, data, cost = small_logistic_setup(4, mechanism="output")
        solver, solves = learners._solve_logistic, []

        def counted(*args):
            solves.append(None)
            return solver(*args)

        monkeypatch.setattr(learners, "_solve_logistic", counted)
        shallow_scores(victim, data, cost, AttackMode.DPV, 50, np.random.default_rng(0))
        assert len(solves) == 2


class TestRelaxedAttack:
    def test_zero_iterations_leaves_data_alone(self):
        victim, data, cost = small_logistic_setup(4)
        out = relaxed_attack(victim, data, cost, 1e-4, 1.0, 0, AttackMode.SV, np.random.default_rng(0))
        np.testing.assert_array_equal(out.X, data.X)
        np.testing.assert_array_equal(out.y, data.y)

    def test_huge_penalty_pins_items(self):
        # alpha = 1e6 forces eta*alpha <= 1 for stability, hence eta = 1e-6
        victim, data, cost = small_logistic_setup(5)
        out = relaxed_attack(
            victim, data, cost, 1e6, 1e-6, 100, AttackMode.SV, np.random.default_rng(0)
        )
        dist = modification_distances(out.X, out.y, data.X, data.y)
        assert dist.max() <= 1e-4

    def test_flips_1d_item_positions(self):
        # aversion on the threshold task drags positive items into negative
        # territory and vice versa until the groups swap sides
        data = gen_1d_dataset(21, substream(7, STAGE_DATA))
        victim = VictimSpec("objective", "logistic", lam=10.0, epsilon=0.1)
        cost = CostSpec(goal=Goal.LABEL_AVERSION, eval_set=gen_eval_grid_1d(21))
        out = relaxed_attack(
            victim, data, cost, 1e-4, 1.0, 300, AttackMode.SV, np.random.default_rng(0)
        )
        pos = out.X[data.y > 0, 0]
        neg = out.X[data.y < 0, 0]
        assert pos.max() < neg.min()

    def test_invalid_alpha(self):
        victim, data, cost = small_logistic_setup(6)
        with pytest.raises(ValueError, match=r"^alpha must be positive, got 0\.0$"):
            relaxed_attack(victim, data, cost, 0.0, 1.0, 5, AttackMode.SV, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "eta, T, message",
        [
            (-1.0, 5, r"^eta must be positive, got -1\.0$"),
            (0.0, 5, r"^eta must be positive, got 0\.0$"),
            (1.0, -2, r"^T must be nonnegative, got -2$"),
            (1.0, 2.5, r"^T must be an integer, got 2\.5$"),
        ],
        ids=["negative-eta", "zero-eta", "negative-T", "fractional-T"],
    )
    def test_invalid_eta_and_T(self, eta, T, message):
        # a negative eta would run gradient ascent, a negative T return the
        # clean data, as AttackConfig refuses them
        victim, data, cost = small_logistic_setup(6)
        with pytest.raises(ValueError, match=message):
            relaxed_attack(victim, data, cost, 1e-4, eta, T, AttackMode.SV, np.random.default_rng(0))

    def test_solver_failure_is_raised(self, monkeypatch):
        victim, data, cost = small_logistic_setup(6)

        def fails(*args, **kwargs):
            raise SolverError("instrumented failure")

        monkeypatch.setattr(attacks, "train_mechanism", fails)
        with pytest.raises(SolverError, match="^instrumented failure$"):
            relaxed_attack(victim, data, cost, 1e-4, 1.0, 5, AttackMode.SV, np.random.default_rng(0))


class TestDeepSelection:
    def test_k_n_selects_everything(self):
        victim, data, cost = small_logistic_setup(7)
        config = AttackConfig(k=data.n, T=10, selection=SelectionMethod.DEEP, mode=AttackMode.SV)
        got = top_k_indices(
            deep_scores(victim, data, cost, config, np.random.default_rng(0)), data.n
        )
        np.testing.assert_array_equal(got, np.arange(data.n))

    def test_deterministic_given_seed(self):
        victim, data, cost = small_logistic_setup(8)
        config = AttackConfig(k=5, T=20, selection=SelectionMethod.DEEP, mode=AttackMode.DPV)
        a = top_k_indices(deep_scores(victim, data, cost, config, substream(3, 2)), 5)
        b = top_k_indices(deep_scores(victim, data, cost, config, substream(3, 2)), 5)
        np.testing.assert_array_equal(a, b)


class TestSelectionScores:
    @pytest.mark.parametrize("selection", [SelectionMethod.SHALLOW, SelectionMethod.DEEP])
    def test_attack_selects_the_top_k_scores(self, selection):
        # Step I of an attack with budget k is the top k of the shared
        # scores, for every k a k sweep ranks once
        victim, data, cost = small_logistic_setup(21)
        config = AttackConfig(k=1, T=4, selection=selection, m_select=3)
        scores = attacks.selection_scores(victim, data, cost, config, seed=5)
        for k in (1, 4, 9, data.n - 1):
            trace = run_attack(victim, data, cost, dataclasses.replace(config, k=k), seed=5)
            np.testing.assert_array_equal(trace.selected, top_k_indices(scores, k))

    @pytest.mark.parametrize("selection", [SelectionMethod.SHALLOW, SelectionMethod.DEEP])
    def test_full_budget_poisons_every_item_unscored(self, monkeypatch, selection):
        # k = n needs no ranking, so no score is computed and no selection stream drawn
        victim, data, cost = small_logistic_setup(22)

        def never(*args):
            raise AssertionError("k = n selected by scores")

        monkeypatch.setattr(attacks, "selection_scores", never)
        monkeypatch.setattr(attacks, "substream", never)
        config = AttackConfig(k=data.n, T=4, selection=selection)
        np.testing.assert_array_equal(attacks.select_items(victim, data, cost, config, seed=0), np.arange(data.n))


class TestAttackConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=-1, T=5),
            dict(k=2, T=-1),
            dict(k=2, T=5, eta=0.0),
            dict(k=2, T=5, m_select=0),
            dict(k=2, T=5, alpha=0.0),
            dict(k=2, T=5, T_eval=1),
            dict(k=2, T=5, relax_T=-1),
            dict(k=2, T=5, eta=np.nan),
            dict(k=2, T=5, eta=np.inf),
            dict(k=2, T=5, alpha=np.nan),
            dict(k=2, T=5, alpha=np.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs)

    def test_selection_defaults_to_deep(self):
        assert AttackConfig(k=3, T=4).selection is SelectionMethod.DEEP
        assert list(SelectionMethod) == [SelectionMethod.SHALLOW, SelectionMethod.DEEP]


@pytest.mark.parametrize("seed", [-1, 2**128 + 1, 1.5])
@pytest.mark.parametrize("entry", ["run_attack", "select_items", "selection_scores"])
def test_entry_point_refuses_a_seed_that_would_alias_another(entry, seed):
    # -1 would replay the streams of 2**128 - 1, and 2**128 + 1 and 1.5
    # those of 1; run_attack is given its items, so its own SGD stream is
    # the one that refuses
    victim, data, cost = small_logistic_setup(2)
    config = AttackConfig(k=3, T=2, selection=SelectionMethod.SHALLOW, mode=AttackMode.SV)
    calls = {
        "run_attack": lambda: run_attack(victim, data, cost, config, seed, selected=[0, 1, 2]),
        "select_items": lambda: attacks.select_items(victim, data, cost, config, seed),
        "selection_scores": lambda: attacks.selection_scores(victim, data, cost, config, seed),
    }
    with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**128), got {seed!r}")):
        calls[entry]()


@pytest.mark.parametrize("seed", [-1, 2**128 + 1, 1.5])
@pytest.mark.parametrize("k", [0, 15], ids=["k=0", "k=n"])
def test_select_items_refuses_such_a_seed_when_no_stream_is_drawn(k, seed):
    # at k = 0 and k = n selection draws nothing, yet the seed is refused
    victim, data, cost = small_logistic_setup(2)
    config = AttackConfig(k=k, T=2, selection=SelectionMethod.SHALLOW, mode=AttackMode.SV)
    with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**128), got {seed!r}")):
        attacks.select_items(victim, data, cost, config, seed)


class TestRunAttack:
    def test_zero_budget_is_a_no_op(self, monkeypatch):
        victim, data, cost = small_logistic_setup(9)
        config = AttackConfig(k=0, T=5, selection=SelectionMethod.SHALLOW)
        noisy = []

        def counting(victim, data, b, *args, **kwargs):
            if np.any(b):
                noisy.append(b)
            return train_mechanism(victim, data, b, *args, **kwargs)

        monkeypatch.setattr(attacks, "train_mechanism", counting)
        trace = run_attack(victim, data, cost, config)
        assert trace.error is None
        assert len(trace.selected) == 0
        np.testing.assert_array_equal(trace.iterations, np.arange(config.T + 1))
        np.testing.assert_array_equal(trace.final_data.X, data.X)
        assert trace.dataset_at(config.T) is data
        assert np.all(trace.surrogate_costs == trace.surrogate_costs[0])
        assert noisy == []

    def test_budget_respected_and_feasible(self):
        victim, data, cost = small_logistic_setup(10)
        config = AttackConfig(k=4, T=30, selection=SelectionMethod.SHALLOW, mode=AttackMode.DPV)
        trace = run_attack(victim, data, cost, config, seed=5)
        assert trace.error is None
        untouched = np.setdiff1d(np.arange(data.n), trace.selected)
        np.testing.assert_array_equal(trace.final_data.X[untouched], data.X[untouched])
        np.testing.assert_array_equal(trace.final_data.y, data.y)  # logistic labels fixed
        # every snapshot obeys the feasible set
        norms = np.linalg.norm(trace.features, axis=2)
        assert norms.max() <= 1.0 + 1e-12
        assert len(trace.iterations) == config.T + 1

    @pytest.mark.parametrize("mode", list(AttackMode))
    def test_logistic_labels_never_move(self, mode):
        # a logistic victim's label gradient is zero, so the step, the
        # penalty and the clip leave every +-1 label bit for bit unchanged,
        # in the relaxed attack of deep selection and at every SGD snapshot
        victim, data, cost = small_logistic_setup(13, mechanism="output")
        config = AttackConfig(k=5, T=20, selection=SelectionMethod.DEEP, mode=mode, alpha=0.5)
        relaxed = relaxed_attack(victim, data, cost, 0.5, 1.0, 20, mode, np.random.default_rng(0))
        assert relaxed.y.tobytes() == data.y.tobytes()
        trace = run_attack(victim, data, cost, config, seed=3)
        assert trace.error is None
        clean = data.y[trace.selected].tobytes()
        assert all(snapshot.tobytes() == clean for snapshot in trace.labels)
        assert trace.final_data.y.tobytes() == data.y.tobytes()

    def test_ridge_labels_stay_clamped(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((10, 2))
        X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
        data = Dataset(X, rng.uniform(-1, 1, 10))
        victim = VictimSpec("objective", "ridge", lam=1.0, epsilon=0.5, rho=0.5)
        cost = CostSpec(
            goal=Goal.PARAMETER_TARGETING, target_model=ModelParams([0.4, 0.0]), loss="squared"
        )
        config = AttackConfig(k=10, T=40)
        trace = run_attack(victim, data, cost, config, seed=2)
        assert trace.error is None
        assert np.abs(trace.labels).max() <= 1.0
        assert np.linalg.norm(trace.features, axis=2).max() <= 1.0 + 1e-12

    def test_bit_identical_reruns(self):
        victim, data, cost = small_logistic_setup(12)
        config = AttackConfig(k=6, T=25, selection=SelectionMethod.DEEP, mode=AttackMode.DPV)
        a = run_attack(victim, data, cost, config, seed=9)
        b = run_attack(victim, data, cost, config, seed=9)
        np.testing.assert_array_equal(a.selected, b.selected)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.surrogate_costs, b.surrogate_costs)

    def test_sv_improves_the_surrogate_cost(self):
        data = gen_2d_dataset(40, (1.0, 1.0), substream(4, STAGE_DATA))
        victim = VictimSpec("objective", "logistic", lam=10.0, epsilon=0.1)
        cost = CostSpec(goal=Goal.LABEL_TARGETING, eval_set=gen_eval_grid_2d())
        config = AttackConfig(k=40, T=50, mode=AttackMode.SV)
        trace = run_attack(victim, data, cost, config)
        assert trace.error is None
        assert trace.surrogate_costs[-1] < trace.surrogate_costs[0]

    def test_dpv_with_tiny_noise_tracks_sv(self):
        victim, data, cost = small_logistic_setup(13)
        quiet = VictimSpec("objective", "logistic", lam=1.0, epsilon=1.0, noise_scale=1e-12)
        sv_cfg = AttackConfig(k=data.n, T=50, mode=AttackMode.SV)
        dpv_cfg = AttackConfig(k=data.n, T=50, mode=AttackMode.DPV)
        sv = run_attack(victim, data, cost, sv_cfg)
        dpv = run_attack(quiet, data, cost, dpv_cfg)
        assert abs(sv.surrogate_costs[-1] - dpv.surrogate_costs[-1]) <= 1e-3

    def test_budget_beyond_n_rejected(self):
        victim, data, cost = small_logistic_setup(15)
        config = AttackConfig(k=data.n + 1, T=5, selection=SelectionMethod.SHALLOW)
        with pytest.raises(ValueError):
            run_attack(victim, data, cost, config)

    def test_explicit_selection_bypasses_step_one(self):
        victim, data, cost = small_logistic_setup(16)
        config = AttackConfig(k=2, T=10, selection=SelectionMethod.SHALLOW, mode=AttackMode.SV)
        trace = run_attack(victim, data, cost, config, selected=[3, 7])
        np.testing.assert_array_equal(trace.selected, [3, 7])
        with pytest.raises(ValueError):
            run_attack(victim, data, cost, config, selected=[3, data.n])

    def test_solver_failure_truncates_trace(self, monkeypatch):
        victim, data, cost = small_logistic_setup(17)
        config = AttackConfig(k=data.n, T=5, mode=AttackMode.SV)

        def fails(*args, **kwargs):
            raise SolverError("instrumented failure")

        monkeypatch.setattr(attacks, "train_mechanism", fails)
        trace = run_attack(victim, data, cost, config)
        assert trace.error is not None
        np.testing.assert_array_equal(trace.iterations, [0])
        assert trace.features.shape[0] == 1
        assert len(trace.surrogate_costs) == 0
        assert trace.final_model is None
        np.testing.assert_array_equal(trace.final_data.X, data.X)

    def test_mid_run_failure_keeps_final_data_at_last_snapshot(self, monkeypatch):
        victim, data, cost = small_logistic_setup(19)
        config = AttackConfig(k=4, T=10, selection=SelectionMethod.SHALLOW, mode=AttackMode.DPV)
        calls = []

        def third_call_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise SolverError("instrumented failure")
            return train_mechanism(*args, **kwargs)

        monkeypatch.setattr(attacks, "train_mechanism", third_call_fails)
        trace = run_attack(victim, data, cost, config, selected=[1, 4, 6, 9])
        assert "instrumented failure" in trace.error
        np.testing.assert_array_equal(trace.iterations, [0, 1])
        assert len(trace.surrogate_costs) == 1
        last = trace.dataset_at(trace.iterations[-1])
        np.testing.assert_array_equal(trace.final_data.X, last.X)
        np.testing.assert_array_equal(trace.final_data.y, last.y)
        assert not np.array_equal(trace.final_data.X, data.X)

    @pytest.mark.parametrize("T", [5, 25])
    def test_surrogate_trained_on_clean_and_final_data_only(self, monkeypatch, T):
        victim, data, cost = small_logistic_setup(20)
        config = AttackConfig(k=4, T=T, selection=SelectionMethod.SHALLOW, mode=AttackMode.DPV)
        noiseless = []

        def counting(victim, data, b, *args, **kwargs):
            if not np.any(b):
                noiseless.append(data)
            return train_mechanism(victim, data, b, *args, **kwargs)

        monkeypatch.setattr(attacks, "train_mechanism", counting)
        trace = run_attack(victim, data, cost, config, selected=[0, 2, 5, 7])
        assert trace.error is None
        assert len(noiseless) == 2
        assert noiseless[0] is data
        np.testing.assert_array_equal(noiseless[1].X, trace.final_data.X)
        assert len(trace.surrogate_costs) == 2
        assert eval_cost(cost, trace.final_model) == trace.surrogate_costs[-1]

    def test_output_steps_warm_start_at_the_base_model(self, monkeypatch):
        # each step's base solve starts at the previous step's base model,
        # not at the model that step released (the base plus its draw)
        victim, data, cost = small_logistic_setup(21, mechanism="output")
        calls = []

        def recording(victim, data, b, warm_start=None):
            calls.append((data, warm_start))
            return train_mechanism(victim, data, b, warm_start=warm_start)

        monkeypatch.setattr(attacks, "train_mechanism", recording)
        config = AttackConfig(k=4, T=6, mode=AttackMode.DPV)
        assert run_attack(victim, data, cost, config, selected=[0, 2, 5, 7]).error is None
        steps = calls[:-1]  # the clean solve and the T steps; the last call is the final surrogate
        assert len(steps) == config.T + 1
        for (previous, _), (_, warm) in zip(steps, steps[1:]):
            base = learners.train_base_logistic(previous, victim.lam)
            np.testing.assert_allclose(warm.theta, base.theta, rtol=0, atol=1e-9)

    def test_dataset_at_reconstruction(self):
        victim, data, cost = small_logistic_setup(18)
        config = AttackConfig(k=5, T=12, selection=SelectionMethod.SHALLOW, mode=AttackMode.SV)
        trace = run_attack(victim, data, cost, config)
        np.testing.assert_array_equal(trace.dataset_at(0).X, data.X)
        np.testing.assert_array_equal(trace.dataset_at(12).X, trace.final_data.X)
        with pytest.raises(ValueError):
            trace.dataset_at(13)

    @pytest.mark.parametrize("mechanism", ["objective", "output"])
    @pytest.mark.parametrize("base", ["logistic", "ridge"])
    @pytest.mark.parametrize(
        "record",
        [[0, 5, 10], [7, 0, 3, 3, 10], [6, 2, 2], []],
        ids=["sorted", "unsorted-with-duplicates", "without-ends", "empty"],
    )
    def test_recorded_snapshots_are_the_full_runs_rows(self, mechanism, base, record):
        # a recorded snapshot does not depend on which others are recorded,
        # and iteration 0 and the last step are kept whatever record holds
        rng = np.random.default_rng(23)
        make_data = random_classification_data if base == "logistic" else random_regression_data
        data = make_data(rng, n=12, d=3)
        victim = VictimSpec(mechanism, base, lam=1.0, epsilon=1.0, rho=0.5 if base == "ridge" else None)
        cost = random_cost(rng, data, base)
        config = AttackConfig(k=4, T=10, mode=AttackMode.DPV)
        full = run_attack(victim, data, cost, config, seed=6, selected=[1, 4, 6, 9])
        kept = run_attack(victim, data, cost, config, seed=6, selected=[1, 4, 6, 9], record=record)
        assert full.error is None and kept.error is None
        np.testing.assert_array_equal(full.iterations, np.arange(config.T + 1))
        want = sorted({0, config.T} | set(record))
        np.testing.assert_array_equal(kept.iterations, want)
        assert kept.features.tobytes() == full.features[want].tobytes()
        assert kept.labels.tobytes() == full.labels[want].tobytes()
        assert kept.final_data.X.tobytes() == full.final_data.X.tobytes()
        assert kept.final_data.y.tobytes() == full.final_data.y.tobytes()
        assert kept.surrogate_costs.tobytes() == full.surrogate_costs.tobytes()
        for t in want:  # snapshot t is the data a t-step attack ends with
            short = run_attack(victim, data, cost, dataclasses.replace(config, T=t), seed=6, selected=[1, 4, 6, 9])
            assert kept.dataset_at(t).X.tobytes() == short.final_data.X.tobytes()
            assert kept.dataset_at(t).y.tobytes() == short.final_data.y.tobytes()

    @pytest.mark.parametrize("record", [[-1, 3], [0, 11], [12]])
    def test_record_outside_the_run_is_refused_before_any_solve(self, monkeypatch, record):
        victim, data, cost = small_logistic_setup(24)

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(attacks, "train_mechanism", no_solve)
        config = AttackConfig(k=4, T=10, selection=SelectionMethod.SHALLOW, mode=AttackMode.DPV)
        with pytest.raises(ValueError, match=r"^recorded iterations must lie in \[0, T=10\], got "):
            run_attack(victim, data, cost, config, record=record)

    @pytest.mark.parametrize("s", [0, 1, 3, 4, 9, 10])
    def test_failure_keeps_the_recorded_steps_before_it_and_its_own(self, monkeypatch, s):
        # the clean solve is call 1 and step i's solve call i + 1, so call
        # s + 2 fails after s steps (at s = T, the final surrogate's solve)
        victim, data, cost = small_logistic_setup(19)
        config = AttackConfig(k=4, T=10, mode=AttackMode.DPV)
        record = [8, 0, 4, 2, 4]
        full = run_attack(victim, data, cost, config, seed=2, selected=[1, 4, 6, 9])
        calls = []

        def fails_after_s_steps(*args, **kwargs):
            calls.append(None)
            if len(calls) == s + 2:
                raise SolverError("instrumented failure")
            return train_mechanism(*args, **kwargs)

        monkeypatch.setattr(attacks, "train_mechanism", fails_after_s_steps)
        trace = run_attack(victim, data, cost, config, seed=2, selected=[1, 4, 6, 9], record=record)
        assert trace.error == f"solver failure after {s} steps: instrumented failure"
        want = sorted({t for t in record if t < s}) + [s]
        np.testing.assert_array_equal(trace.iterations, want)
        assert trace.features.tobytes() == full.features[want].tobytes()
        last = trace.dataset_at(s)
        assert trace.final_data.X.tobytes() == last.X.tobytes() == full.dataset_at(s).X.tobytes()
        assert trace.final_data.y.tobytes() == last.y.tobytes()


@pytest.mark.parametrize("base", ["ridge", "logistic"])
@pytest.mark.parametrize("items", [[2, 7, 9], list(range(12))], ids=["some-items", "every-item"])
def test_step_datasets_keep_no_earlier_one_alive(monkeypatch, base, items):
    # a logistic lane makes each step's dataset from the clean one, so
    # nothing holds a step's dataset once the lane has moved on: no chain of
    # datasets grows with T, whether or not a solve formed the dataset's
    # Gram matrix; a ridge lane makes none per step, only its last, once,
    # when it leaves the descent
    rng = np.random.default_rng(5)
    make_data = random_regression_data if base == "ridge" else random_classification_data
    data = make_data(rng, n=12, d=3)
    victim = VictimSpec("objective", base, lam=1.0, epsilon=1.0, rho=0.5 if base == "ridge" else None)
    cost = random_cost(rng, data, base)
    lane = attacks._Lane(data, items, substream(0, STAGE_SGD), 0.1)
    lane.model = train_mechanism(victim, data, np.zeros(3))
    steps, with_modified = [], Dataset.with_modified

    def recording(self, *args):
        modified = with_modified(self, *args)
        steps.append(weakref.ref(modified))
        return modified

    monkeypatch.setattr(Dataset, "with_modified", recording)
    attacks._descend(victim, cost, [lane], 0.5, 1e-4, 6, AttackMode.DPV)
    monkeypatch.undo()
    gc.collect()
    assert [step() is None for step in steps] == ([False] if base == "ridge" else [True] * 5 + [False])
    assert steps[-1]() is lane.data and lane.clean is data


def ridge_reference(victim, data, cost, items, rng, scale, eta, alpha, T, mode, mus):
    """A ridge lane's descent on a dataset per step, which with_modified
    makes from the clean one: train_mechanism, then batch_item_gradients
    on it. Appends each step's dual to mus; returns the final dataset and
    the (features, labels) of every iteration."""
    rows = slice(None) if len(items) == data.n else items
    X0, y0 = data.X[items], data.y[items]
    Xs, ys = X0.copy(), y0.copy()
    current, kept = data, [(X0, y0)]
    for _ in range(T):
        b = learners.sample_noise(data.dim, scale, rng) if mode == "dpv" else np.zeros(data.dim)
        model = train_mechanism(victim, current, b)
        mus.append(model.mu)
        feat, lab = batch_item_gradients(victim, current, model, b, cost_gradient(cost, model), items)
        if alpha:
            feat += alpha * (Xs - X0)
            lab += alpha * (ys - y0)
        Xs -= eta * feat
        ys -= eta * lab
        attacks.project_rows_inplace(Xs, ys)
        current = data.with_modified(rows, Xs, ys)
        kept.append((Xs.copy(), ys.copy()))
    return current, kept


# A ridge lane sums its X'X as the Gram of its unmoved rows plus its moved
# rows' products, the reference's dataset as X'X of all its rows: the same
# sums in another order. Over the 8 steps below no compared value moved by
# more than 2.2e-16 (one ulp of 1), so 1e-12 leaves almost four orders of
# magnitude of room; one wrong term moves a value by far more.
RIDGE_ATOL = 1e-12


@pytest.mark.parametrize("mechanism", ["objective", "output"])
@pytest.mark.parametrize("mode", ["dpv", "sv"])
def test_ridge_lanes_step_as_on_a_dataset(monkeypatch, mechanism, mode):
    # a ridge lane solves each step on its own X'X and X'y with no dataset
    # per step; the relaxed attack, run_attack and a sweep's lanes are the
    # dataset-per-step path to rounding, with the constraint both slack
    # (mu = 0) and active (mu > 0) along the way
    rng = np.random.default_rng(40)
    data = random_regression_data(rng, n=30, d=3)
    free = train_mechanism(VictimSpec(mechanism, "ridge", lam=1.0, epsilon=4.0, rho=100.0), data, np.zeros(3))
    # rho just above the clean model's norm, a target far outside it
    victim = VictimSpec(mechanism, "ridge", lam=1.0, epsilon=4.0, rho=1.2 * np.linalg.norm(free.theta))
    cost = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=ModelParams(6.0 * free.theta))
    scale, mus = victim.noise_scale_for(data.n), []

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=RIDGE_ATOL)

    def same(got, want):
        close(got.X, want.X)
        close(got.y, want.y)

    relaxed = relaxed_attack(victim, data, cost, 1e-2, 0.5, 8, mode, np.random.default_rng(0))
    args = (scale, 0.5, 1e-2, 8, mode, mus)
    same(relaxed, ridge_reference(victim, data, cost, np.arange(data.n), np.random.default_rng(0), *args)[0])

    config = AttackConfig(k=5, T=8, eta=0.5, mode=mode)
    items = np.array([0, 3, 4, 11, 20])
    trace = run_attack(victim, data, cost, config, seed=3, selected=items)
    want, kept = ridge_reference(victim, data, cost, items, substream(3, STAGE_SGD), scale, 0.5, 0.0, 8, mode, mus)
    same(trace.final_data, want)
    close(trace.features, np.stack([x for x, _ in kept]))
    close(trace.labels, np.stack([y for _, y in kept]))
    surrogates = [train_mechanism(victim, d, np.zeros(3)) for d in (data, want)]
    close(trace.surrogate_costs, [eval_cost(cost, m) for m in surrogates])
    close(trace.final_model.theta, surrogates[1].theta)

    selections, seeds, scales = [items[:2], np.array([1, 7, 9, 25]), items], [4, 5, 6], [scale, scale / 2, 2 * scale]
    made, with_modified = [], Dataset.with_modified
    monkeypatch.setattr(Dataset, "with_modified", lambda self, *a: made.append(1) or with_modified(self, *a))
    finals, error = attacks.sweep_attacks(victim, data, cost, config, selections, seeds, scales)
    monkeypatch.undo()
    assert error is None and len(made) == 3  # one dataset per lane, none per step
    for final, lane_items, seed, lane_scale in zip(finals, selections, seeds, scales):
        rng = substream(seed, STAGE_SGD)
        same(final, ridge_reference(victim, data, cost, lane_items, rng, lane_scale, 0.5, 0.0, 8, mode, mus)[0])
    assert any(mu > 0 for mu in mus) and any(mu == 0 for mu in mus)


def no_solve(*args, **kwargs):
    raise AssertionError("a solve ran")


class TestSweepAttacks:
    @pytest.mark.parametrize(
        "mechanism, base",
        [("objective", "logistic"), ("output", "logistic"), ("objective", "ridge"), ("output", "ridge")],
    )
    @pytest.mark.parametrize("mode", ["dpv", "sv"])
    def test_lanes_match_lone_attacks(self, mechanism, base, mode):
        # each lane is run_attack's Step II on its own items, seed and
        # scale: to rounding for objective-perturbation logistic, whose
        # stacked solves group their sums differently, and bit for bit for
        # the others, whose lanes are solved one at a time; a k = 0 lane
        # keeps the clean data
        rng = np.random.default_rng(21)
        make_data = random_classification_data if base == "logistic" else random_regression_data
        data = make_data(rng, n=12, d=3)
        rho = 0.6 if base == "ridge" else None
        victims = [VictimSpec(mechanism, base, lam=1.0, epsilon=eps, rho=rho) for eps in (1.0, 2.0, 4.0)]
        cost = random_cost(rng, data, base)
        config = AttackConfig(k=4, T=6, mode=mode, eta=0.5)
        selections = [np.array([1, 4, 7, 9]), np.arange(0), np.array([0, 2, 3, 5, 11])]
        seeds = [11, 12, 13]
        scales = [v.noise_scale_for(data.n) for v in victims]
        finals, error = attacks.sweep_attacks(victims[0], data, cost, config, selections, seeds, scales)
        assert len(finals) == 3
        assert error is None
        for victim, items, seed, final in zip(victims, selections, seeds, finals):
            lone = run_attack(victim, data, cost, config, seed, items)
            assert lone.error is None
            if (mechanism, base) != ("objective", "logistic"):
                np.testing.assert_array_equal(final.X, lone.final_data.X)
                np.testing.assert_array_equal(final.y, lone.final_data.y)
            np.testing.assert_allclose(final.X, lone.final_data.X, rtol=0, atol=1e-10)
            np.testing.assert_allclose(final.y, lone.final_data.y, rtol=0, atol=1e-10)
        assert finals[1] is data

    def test_one_lane_is_the_lone_attack_bit_for_bit(self):
        victim, data, cost = small_logistic_setup(23)
        config = AttackConfig(k=3, T=8)
        items = np.array([2, 5, 6])
        scale = victim.noise_scale_for(data.n)
        [final], error = attacks.sweep_attacks(victim, data, cost, config, [items], [4], [scale])
        assert error is None
        lone = run_attack(victim, data, cost, config, 4, items)
        np.testing.assert_array_equal(final.X, lone.final_data.X)

    def test_failed_lane_ends_the_list(self, monkeypatch):
        # lane 1 fails at its third step: lane 0 runs to the end, lane 2
        # is dropped with it
        victim, data, cost = small_logistic_setup(24)
        config = AttackConfig(k=2, T=5)
        stacked = []

        def third_step_fails_in_row_one(X, y, lam, B, warm_start=None):
            stacked.append(len(B))
            if len(stacked) == 3:
                raise SolverError("instrumented failure", [1])
            return learners._solve_logistic_rows(X, y, lam, B, warm_start)

        monkeypatch.setattr(attacks, "_solve_logistic_rows", third_step_fails_in_row_one)
        selections = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])]
        scale = victim.noise_scale_for(data.n)
        finals, error = attacks.sweep_attacks(victim, data, cost, config, selections, [1, 2, 3], [scale] * 3)
        assert len(finals) == 1
        assert isinstance(error, SolverError)
        assert str(error) == "solver failure after 2 steps: instrumented failure"
        assert stacked == [3, 3, 3]
        monkeypatch.undo()
        lone = run_attack(victim, data, cost, config, 1, selections[0])
        np.testing.assert_allclose(finals[0].X, lone.final_data.X, rtol=0, atol=1e-10)

    def test_lone_lanes_keep_the_lanes_before_a_failed_one(self, monkeypatch):
        # three output-perturbation lanes, trained one at a time: lane 1
        # fails at its third step, so lane 0 runs on alone, bit for bit
        # run_attack, and lanes 1 and 2 keep the data of step 2
        victim, data, cost = small_logistic_setup(32, mechanism="output")
        config = AttackConfig(k=2, T=5)
        warm, descents, descend = [], [], attacks._descend

        def third_step_fails_in_lane_one(victim, data, b, warm_start=None):
            if warm_start is not None:  # the lanes' steps, in lane order
                warm.append(1)
                if len(warm) == 8:
                    raise SolverError("instrumented failure")
            return train_mechanism(victim, data, b, warm_start=warm_start)

        def recorded(victim, cost, lanes, *args):
            descents.append(lanes)
            return descend(victim, cost, lanes, *args)

        monkeypatch.setattr(attacks, "train_mechanism", third_step_fails_in_lane_one)
        monkeypatch.setattr(attacks, "_descend", recorded)
        selections = [np.array([0, 1]), np.array([2, 3, 4]), np.array([5, 6])]
        scale = victim.noise_scale_for(data.n)
        finals, error = attacks.sweep_attacks(victim, data, cost, config, selections, [1, 2, 3], [scale] * 3)
        monkeypatch.undo()
        assert str(error) == "solver failure after 2 steps: instrumented failure"
        [lanes] = descents
        assert [lane.steps for lane in lanes] == [5, 2, 2]
        assert [lane.error is None for lane in lanes] == [True, False, True]
        assert len(finals) == 1 and finals[0] is lanes[0].data
        for seed, (items, lane) in enumerate(zip(selections, lanes), start=1):
            lone = run_attack(victim, data, cost, dataclasses.replace(config, T=lane.steps), seed, items)
            np.testing.assert_array_equal(lane.data.X, lone.final_data.X)
            np.testing.assert_array_equal(lane.data.X[items], lane.Xs)

    def test_stack_keeps_the_lanes_before_a_failed_one(self, monkeypatch):
        # lane 2 of 4 fails at its fourth step: lanes 0 and 1 go on as a
        # stack of two, and lanes 2 and 3 keep the data of step 3
        victim, data, cost = small_logistic_setup(28)
        config = AttackConfig(k=2, T=6)
        stacked = []

        def fourth_step_fails_in_row_two(X, y, lam, B, warm_start=None):
            stacked.append(len(B))
            if len(stacked) == 4:
                raise SolverError("instrumented failure", [3, 2])
            return learners._solve_logistic_rows(X, y, lam, B, warm_start)

        monkeypatch.setattr(attacks, "_solve_logistic_rows", fourth_step_fails_in_row_two)
        selections = [np.array([0, 1]), np.array([2, 3, 4]), np.array([5]), np.array([6, 7])]
        scale = victim.noise_scale_for(data.n)
        lanes = [attacks._Lane(data, items, substream(seed, STAGE_SGD), scale) for seed, items in enumerate(selections)]
        for lane in lanes:
            lane.model = train_mechanism(victim, data, np.zeros(2))
        attacks._descend(victim, cost, lanes, config.eta, 0.0, config.T, config.mode)
        assert stacked == [4, 4, 4, 4, 2, 2, 2]
        assert [lane.steps for lane in lanes] == [6, 6, 3, 3]
        assert [lane.error is None for lane in lanes] == [True, True, False, True]
        monkeypatch.undo()
        for seed, (items, lane) in enumerate(zip(selections, lanes)):
            lone = run_attack(victim, data, cost, dataclasses.replace(config, T=lane.steps), seed, items)
            np.testing.assert_allclose(lane.data.X, lone.final_data.X, rtol=0, atol=1e-10)
            np.testing.assert_array_equal(lane.data.X[items], lane.Xs)

    @pytest.mark.parametrize(
        "mechanism, base",
        [("objective", "logistic"), ("output", "logistic"), ("objective", "ridge"), ("output", "ridge")],
    )
    def test_a_step_projects_all_lanes_at_once(self, monkeypatch, mechanism, base):
        # five lanes' moved rows are one buffer: each step projects it once,
        # and objective-perturbation logistic lanes take their item
        # gradients as one stack, with no per-lane item-gradient call
        # (batch_item_gradients, or a ridge lane's _ridge_grads)
        rng = np.random.default_rng(29)
        make_data = random_classification_data if base == "logistic" else random_regression_data
        data = make_data(rng, n=20, d=2)
        victim = VictimSpec(mechanism, base, lam=1.0, epsilon=1.0, rho=0.6 if base == "ridge" else None)
        cost = random_cost(rng, data, base)
        calls = {"project": 0, "batch": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(attacks, "project_rows_inplace", counted("project", attacks.project_rows_inplace))
        monkeypatch.setattr(attacks, "batch_item_gradients", counted("batch", batch_item_gradients))
        monkeypatch.setattr(attacks, "_ridge_grads", counted("batch", attacks._ridge_grads))
        selections = [np.arange(3 * i, 3 * i + i + 1) for i in range(5)]
        scale = victim.noise_scale_for(data.n)
        config = AttackConfig(k=5, T=4)
        finals, error = attacks.sweep_attacks(victim, data, cost, config, selections, range(5), [scale] * 5)
        assert error is None and len(finals) == 5
        stacked = (mechanism, base) == ("objective", "logistic")
        assert calls == {"project": 4, "batch": 0 if stacked else 4 * 5}

    @pytest.mark.parametrize(
        "mechanism, base",
        [("objective", "logistic"), ("output", "logistic"), ("objective", "ridge")],
        ids=["logistic", "output-logistic", "ridge"],
    )
    def test_non_finite_rows_are_refused(self, monkeypatch, mechanism, base):
        # a step whose moved rows are not finite raises ValueError, whether
        # the lanes are trained as one stack (objective-perturbation
        # logistic), one at a time on a dataset each (output logistic) or
        # on their Grams (ridge)
        rng = np.random.default_rng(30)
        make_data = random_classification_data if base == "logistic" else random_regression_data
        data = make_data(rng, n=10, d=2)
        victim = VictimSpec(mechanism, base, lam=1.0, epsilon=1.0, rho=0.6 if base == "ridge" else None)
        cost = random_cost(rng, data, base)

        def nan_gradients(function):
            return lambda *args: tuple(np.full_like(a, np.nan) for a in function(*args))

        monkeypatch.setattr(attacks, "batch_item_gradients", nan_gradients(batch_item_gradients))
        monkeypatch.setattr(attacks, "_stacked_logistic_grads", nan_gradients(attacks._stacked_logistic_grads))
        monkeypatch.setattr(attacks, "_ridge_grads", nan_gradients(attacks._ridge_grads))
        selections = [np.array([0, 1]), np.array([2, 3, 4])]
        scale = victim.noise_scale_for(data.n)
        with pytest.raises(ValueError, match="features and labels must be finite"):
            attacks.sweep_attacks(victim, data, cost, AttackConfig(k=2, T=3), selections, [1, 2], [scale] * 2)

    @pytest.mark.parametrize("short", ["selections", "seeds", "scales"])
    def test_unequal_lengths_are_refused_before_any_solve(self, monkeypatch, short):
        # zip would drop the attacks past the shortest argument
        victim, data, cost = small_logistic_setup(31)
        monkeypatch.setattr(attacks, "train_mechanism", no_solve)
        args = {"selections": [[0, 1], [2, 3], [4, 5]], "seeds": [1, 2, 3], "scales": [0.5] * 3}
        args[short] = args[short][:2]
        lengths = ", ".join(str(len(args[name])) for name in ("selections", "seeds")) + f" and {len(args['scales'])}"
        message = rf"^selections, seeds and scales need one entry per attack, got {lengths}$"
        with pytest.raises(ValueError, match=message):
            attacks.sweep_attacks(victim, data, cost, AttackConfig(k=2, T=3), **args)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -0.5])
    def test_bad_scale_is_refused_before_any_solve(self, monkeypatch, scale):
        victim, data, cost = small_logistic_setup(31)
        monkeypatch.setattr(attacks, "train_mechanism", no_solve)
        with pytest.raises(ValueError, match=rf"^scales\[1\] must be finite and nonnegative, got {scale!r}$"):
            attacks.sweep_attacks(victim, data, cost, AttackConfig(k=2, T=3), [[0], [1]], [1, 2], [0.5, scale])

    def test_failed_ridge_lane_ends_the_list(self, monkeypatch):
        # ridge lanes are solved one at a time; the failed one is named by
        # its lane index, so lane 0 runs to the end and lane 2 is dropped;
        # each lane makes its dataset once, when it leaves the descent
        rng = np.random.default_rng(25)
        data = random_regression_data(rng, n=10, d=2)
        victim = VictimSpec("objective", "ridge", lam=1.0, epsilon=1.0, rho=0.6)
        cost = random_cost(rng, data, "ridge")
        config = AttackConfig(k=2, T=5)
        solves, made, with_modified = [], [], Dataset.with_modified

        def third_solve_of_lane_one_fails(*args):
            solves.append(1)
            # three lanes per step, lane 1 second: its third step's solve
            if len(solves) == 8:
                raise SolverError("instrumented failure")
            return learners._ridge_solve(*args)

        def counted(self, indices, *args):
            made.append(indices.tolist())
            return with_modified(self, indices, *args)

        monkeypatch.setattr(attacks, "_ridge_solve", third_solve_of_lane_one_fails)
        monkeypatch.setattr(Dataset, "with_modified", counted)
        selections = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])]
        scale = victim.noise_scale_for(data.n)
        finals, error = attacks.sweep_attacks(victim, data, cost, config, selections, [1, 2, 3], [scale] * 3)
        assert len(finals) == 1
        assert isinstance(error, SolverError)
        assert str(error) == "solver failure after 2 steps: instrumented failure"
        assert made == [[2, 3], [4, 5], [0, 1]]
        monkeypatch.undo()
        lone = run_attack(victim, data, cost, config, 1, selections[0])
        np.testing.assert_array_equal(finals[0].X, lone.final_data.X)

    def test_failed_clean_solve_fails_the_first_attack(self, monkeypatch):
        victim, data, cost = small_logistic_setup(27)

        def fails(*args, **kwargs):
            raise SolverError("instrumented failure")

        monkeypatch.setattr(attacks, "train_mechanism", fails)
        scale = victim.noise_scale_for(data.n)
        finals, error = attacks.sweep_attacks(victim, data, cost, AttackConfig(k=2, T=3), [[0, 1]], [1], [scale])
        assert finals == []
        assert str(error) == "solver failure after 0 steps: instrumented failure"

    def test_no_attacks_make_no_solve(self, monkeypatch):
        victim, data, cost = small_logistic_setup(27)
        monkeypatch.setattr(attacks, "train_mechanism", None)
        assert attacks.sweep_attacks(victim, data, cost, AttackConfig(k=2, T=3), [], [], []) == ([], None)

    @pytest.mark.parametrize("bad", ["-1", "n", "repeat", "fraction"])
    def test_lanes_check_their_items(self, monkeypatch, bad):
        # a lane sorts its items, as run_attack does, and an index outside
        # [0, n), one given twice or one that is no integer (a cast would
        # truncate 0.7 to item 0) is rejected before any solve
        victim, data, cost = small_logistic_setup(26)
        config = AttackConfig(k=3, T=4)
        scale = victim.noise_scale_for(data.n)
        [final], error = attacks.sweep_attacks(victim, data, cost, config, [np.array([6, 2, 5])], [4], [scale])
        assert error is None
        lone = run_attack(victim, data, cost, config, 4, [6, 2, 5])
        np.testing.assert_array_equal(final.X, lone.final_data.X)
        solves = []
        monkeypatch.setattr(attacks, "train_mechanism", lambda *args, **kwargs: solves.append(args))
        second = {"-1": -1, "n": data.n, "repeat": 2, "fraction": 0.7}[bad]
        message = {
            "repeat": "selected indices must be distinct",
            "fraction": r"^item indices must be integers, got dtype float64$",
        }.get(bad, "selected indices out of range")
        selections = [np.array([0, 1]), np.array([2, second])]
        with pytest.raises(ValueError, match=message):
            attacks.sweep_attacks(victim, data, cost, config, selections, [4, 5], [scale] * 2)
        with pytest.raises(ValueError, match=message):
            run_attack(victim, data, cost, config, 4, [2, second])
        assert solves == []
