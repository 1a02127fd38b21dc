"""Dataset generation and ingestion, cost estimation, and orchestration."""

import dataclasses
import json
import os
import re
import textwrap

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dppoison import (
    CostSpec,
    Dataset,
    Goal,
    ModelParams,
    SolverError,
    VictimSpec,
    eval_cost,
    run_attack,
    sample_noise,
    shallow_scores,
    train_mechanism,
)
from dppoison import learners
from dppoison.attacks import sweep_attacks
from dppoison.harness import (
    CostEstimate,
    build_cost,
    build_dataset,
    build_eval_set,
    build_nn_eval_set,
    config_from_dict,
    config_to_dict,
    curve_iterations,
    estimate_attack_cost,
    gen_1d_dataset,
    gen_2d_dataset,
    gen_eval_grid_1d,
    gen_eval_grid_2d,
    load_csv_dataset,
    normalize_dataset,
    pick_extreme_eval_item,
    run_evaluation,
    run_experiment,
    save_csv_dataset,
    write_csv,
    write_dataset_files,
)
from dppoison.harness import experiment
from dppoison.harness.cli import load_config, main
from dppoison.rng import STAGE_DATA, STAGE_MC_POISONED, subseed, substream

DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")

# subnormals, the largest floats, values that need all 17 significant
# digits and a signed zero
EDGE_FLOATS = [5e-324, -2.225e-310, 1.7976931348623157e308, -1.7976931348623157e308,
               0.30000000000000004, 1.0000000000000002, -(2.0**53 + 2), -0.0]


class TestGenerators:
    def test_1d_shapes_and_labels(self):
        data = gen_1d_dataset(21, np.random.default_rng(0))
        assert data.n == 21 and data.dim == 1
        assert np.abs(data.X).max() <= 1.0
        np.testing.assert_array_equal(data.y, np.where(data.X[:, 0] >= 0, 1.0, -1.0))

    def test_1d_positive_fraction(self):
        data = gen_1d_dataset(100_000, np.random.default_rng(1))
        assert np.mean(data.y == 1.0) == pytest.approx(0.5, abs=0.01)

    def test_2d_disk_and_labels(self):
        theta_star = np.array([1.0, 1.0])
        data = gen_2d_dataset(317, theta_star, np.random.default_rng(2))
        assert data.n == 317 and data.dim == 2
        assert np.linalg.norm(data.X, axis=1).max() <= 1.0
        np.testing.assert_array_equal(
            data.y, np.where(data.X @ theta_star >= 0, 1.0, -1.0)
        )

    def test_2d_theta_star_must_be_a_2_vector(self):
        with pytest.raises(ValueError, match="^theta_star must be a 2-vector$"):
            gen_2d_dataset(5, (1.0, 0.0, 0.0), np.random.default_rng(2))

    def test_2d_radius_distribution_is_uniform_in_area(self):
        data = gen_2d_dataset(100_000, (1.0, 0.0), np.random.default_rng(3))
        r2 = np.einsum("ij,ij->i", data.X, data.X)
        # squared radius of a uniform disk sample is uniform on [0, 1]
        assert r2.mean() == pytest.approx(0.5, abs=0.01)
        assert np.mean(r2 < 0.25) == pytest.approx(0.25, abs=0.01)


class TestEvalGrids:
    def test_1d_grid_values(self):
        grid = gen_eval_grid_1d(21)
        np.testing.assert_allclose(grid.X[:, 0], np.arange(-10, 11) / 10.0, atol=1e-15)
        np.testing.assert_array_equal(grid.y, np.where(grid.X[:, 0] >= 0, 1.0, -1.0))

    def test_2d_grid_disk_and_vertical_boundary(self):
        grid = gen_eval_grid_2d()
        assert grid.n == 317
        assert np.linalg.norm(grid.X, axis=1).max() <= 1.0 + 1e-9
        np.testing.assert_array_equal(grid.y, np.where(grid.X[:, 0] >= 0, 1.0, -1.0))


class TestCsvRoundTrip:
    def test_save_load_is_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        data = Dataset(rng.standard_normal((7, 3)), rng.standard_normal(7))
        path = tmp_path / "d.csv"
        save_csv_dataset(data, path)
        back = load_csv_dataset(path)
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.y, data.y)

    def test_feature_columns_default_to_file_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("b,y,a\n1.0,5.0,2.0\n")
        data = load_csv_dataset(path)
        np.testing.assert_array_equal(data.X, [[1.0, 2.0]])
        assert data.y[0] == 5.0
        picked = load_csv_dataset(path, feature_columns=["a", "b"])
        np.testing.assert_array_equal(picked.X, [[2.0, 1.0]])

    def test_label_map(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y\n0.5,Abnormal\n0.25,Normal\n")
        data = load_csv_dataset(path, label_map={"Abnormal": 1.0, "Normal": -1.0})
        np.testing.assert_array_equal(data.y, [1.0, -1.0])

    def test_unknown_label_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y\n0.5,Abnormal\n0.25,Odd\n")
        with pytest.raises(ValueError, match=r":3"):
            load_csv_dataset(path, label_map={"Abnormal": 1.0})

    def test_bad_feature_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y\nnot-a-number,1.0\n")
        with pytest.raises(ValueError, match=r":2"):
            load_csv_dataset(path)

    @pytest.mark.parametrize(
        "body, label_map",
        [
            ("x0,y\n0.5,1.0\nnan,1.0\n", None),
            ("x0,y\n0.5,1.0\n-inf,1.0\n", None),
            ("x0,y\n0.5,1.0\n0.25,inf\n", None),
            ("x0,y\n0.5,a\n0.25,b\n", {"a": 1.0, "b": float("nan")}),
        ],
        ids=["nan-feature", "inf-feature", "inf-label", "mapped-nan-label"],
    )
    def test_non_finite_value_reports_line(self, tmp_path, body, label_map):
        path = tmp_path / "d.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=r"d\.csv:3: non-finite"):
            load_csv_dataset(path, label_map=label_map)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y\n")
        with pytest.raises(ValueError):
            load_csv_dataset(path)

    @pytest.mark.parametrize(
        "body, columns, message",
        [
            ("", None, "d.csv: empty file"),
            ("x0,label\n0.5,1\n", None, "d.csv: missing label column 'y'"),
            ("x0,y\n0.5,1\n", ["x0", "x1"], "d.csv: missing feature columns ['x1']"),
            ("y\n1\n", None, "d.csv: no feature columns"),
            ("x0,y\n0.5,1\n0.25,high\n", None, "d.csv:3: bad label value 'high'"),
        ],
        ids=["no-header", "no-label-column", "no-such-feature-column", "no-feature-column", "bad-label"],
    )
    def test_malformed_file_names_its_fault(self, tmp_path, body, columns, message):
        path = tmp_path / "d.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{tmp_path}{os.sep}{message}')}$"):
            load_csv_dataset(path, feature_columns=columns)

    def test_vertebral_fixture_shape(self):
        data = load_csv_dataset(
            os.path.join(DATA_DIR, "vertebral_synthetic.csv"),
            label_column="class",
            label_map={"Abnormal": 1.0, "Normal": -1.0},
        )
        assert (data.n, data.dim) == (310, 6)
        assert int(np.sum(data.y == 1.0)) == 210

    def test_wine_fixture_shape(self):
        data = load_csv_dataset(
            os.path.join(DATA_DIR, "winequality_synthetic.csv"), label_column="quality"
        )
        assert (data.n, data.dim) == (1598, 11)
        assert data.y.min() >= 3.0 and data.y.max() <= 8.0

    def test_write_csv_bytes(self, tmp_path):
        # every cell of every output CSV is %.17g, lines end in CRLF: a
        # signed zero, a tiny value, integral floats, Python and numpy
        # integers (exact up to 2**53) and a bool; tests/test_golden.py
        # holds trace.csv, written by run_experiment, to the golden files
        path = tmp_path / "out" / "trace.csv"
        rows = [(0, np.int64(4), -0.0, 1e-300, True), [np.int32(2), 2**53, 1.0, 123456789.0, 0.1]]
        write_csv(str(path), ["iteration", "item", "x0", "x1", "y"], iter(rows))
        assert path.read_bytes() == (
            b"iteration,item,x0,x1,y\r\n"
            b"0,4,-0,1e-300,1\r\n"
            b"2,9007199254740992,1,123456789,0.10000000000000001\r\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        table=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(2, 5)),
            elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS),
        )
    )
    @example(table=np.array([EDGE_FLOATS[:4], EDGE_FLOATS[4:]]))
    def test_save_load_is_bit_exact(self, tmp_path_factory, table):
        # the round trip _FLOAT_FMT promises, signed zeros included
        data = Dataset(table[:, :-1], table[:, -1])
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        save_csv_dataset(data, path)
        back = load_csv_dataset(path)
        assert back.X.shape == data.X.shape
        assert back.X.tobytes() == data.X.tobytes() and back.y.tobytes() == data.y.tobytes()


class TestNormalize:
    def test_global_scale(self):
        X = np.array([[3.0, 4.0], [0.3, 0.4]])
        out = normalize_dataset(Dataset(X, [1.0, 2.0]))
        assert np.linalg.norm(out.X, axis=1).max() == pytest.approx(1.0)
        # relative geometry: one global divisor
        np.testing.assert_allclose(out.X * 5.0, X, rtol=1e-15)
        np.testing.assert_array_equal(out.y, [1.0, 2.0])

    def test_label_midpoint_maps_to_zero(self):
        out = normalize_dataset(
            Dataset([[1.0]], [5.0]), normalize_labels=True, label_range=(0.0, 10.0)
        )
        assert out.y[0] == 0.0

    def test_zero_features_rejected(self):
        with pytest.raises(ValueError):
            normalize_dataset(Dataset([[0.0, 0.0]], [1.0]))


NOT_NORMALIZED = "an eval CSV is not normalized, so its {} must already be on the training data's scale"


class TestBuildDatasetFeasibility:
    @staticmethod
    def csv_config(tmp_path, body, base="logistic", **data):
        path = tmp_path / "d.csv"
        path.write_text(body)
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["victim"].update(base=base, rho=1.0 if base == "ridge" else None)
        raw["data"] = {"kind": "csv", "path": str(path), **data}
        return config_from_dict(raw)

    def test_feature_outside_unit_ball_rejected(self, tmp_path):
        body = "x0,x1,y\n0.5,0.5,1\n1.0,1.0,-1\n"
        with pytest.raises(ValueError, match="normalize"):
            build_dataset(self.csv_config(tmp_path, body))
        data = build_dataset(self.csv_config(tmp_path, body, normalize=True))
        assert np.linalg.norm(data.X, axis=1).max() <= 1.0

    @pytest.mark.parametrize("x, ok", [("1.0000000000000002", True), ("1.000000000000001", False)])
    def test_norm_tolerance_is_the_projections(self, tmp_path, x, ok):
        # rescaling by the largest norm can round a couple of ulps past 1
        config = self.csv_config(tmp_path, f"x0,y\n{x},1\n0.5,-1\n")
        if ok:
            assert build_dataset(config).X[0, 0] == float(x)
        else:
            with pytest.raises(ValueError, match="normalize"):
                build_dataset(config)

    def test_ridge_label_outside_unit_interval_rejected(self, tmp_path):
        body = "x0,y\n0.5,2.0\n-0.5,-0.5\n"
        with pytest.raises(ValueError, match="normalize"):
            build_dataset(self.csv_config(tmp_path, body, base="ridge"))
        # a logistic victim's labels must be -1 or +1
        with pytest.raises(ValueError, match="label_map"):
            build_dataset(self.csv_config(tmp_path, body))
        data = build_dataset(
            self.csv_config(
                tmp_path, body, base="ridge", normalize=True, normalize_labels=True, label_range=[-2, 2]
            )
        )
        assert np.abs(data.y).max() <= 1.0

    @pytest.mark.parametrize(
        "flags, hint",
        [
            ({}, "set normalize: true and normalize_labels: true"),
            ({"normalize": True}, "set normalize_labels: true"),
            (
                {"normalize": True, "normalize_labels": True, "label_range": [0, 5]},
                "label_range [0, 5] must cover the labels' range [-0.5, 9.0]",
            ),
        ],
        ids=["neither", "normalize", "both"],
    )
    def test_label_hint_names_the_field_to_change(self, tmp_path, flags, hint):
        body = "x0,y\n0.5,9.0\n-0.5,-0.5\n"
        message = f"data: ridge labels must lie in [-1, 1]; {hint}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_dataset(self.csv_config(tmp_path, body, base="ridge", **flags))

    def test_normalize_labels_needs_normalize(self, tmp_path):
        # normalize_dataset maps the labels only when it runs
        with pytest.raises(ValueError, match=r"^normalize_labels needs normalize: true$"):
            self.csv_config(tmp_path, "x0,y\n0.5,1\n", normalize_labels=True)

    @staticmethod
    def eval_csv_config(tmp_path, body, base="logistic"):
        path = tmp_path / "eval.csv"
        path.write_text(body)
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["victim"].update(base=base, rho=1.0 if base == "ridge" else None)
        raw["eval"] = {"kind": "csv", "path": str(path)}
        return config_from_dict(raw)

    @pytest.mark.parametrize("base", ["logistic", "ridge"])
    def test_eval_feature_outside_unit_ball_rejected(self, tmp_path, base):
        config = self.eval_csv_config(tmp_path, "x0,x1,y\n0.6,0.8,1\n3.0,4.0,-1\n", base)
        with pytest.raises(ValueError, match="^eval: a feature norm exceeds 1"):
            build_eval_set(config, None)
        # the unit sphere itself is feasible
        config = self.eval_csv_config(tmp_path, "x0,x1,y\n0.6,0.8,1\n", base)
        assert build_eval_set(config, None).n == 1

    def test_eval_ridge_label_outside_unit_interval_rejected(self, tmp_path):
        body = "x0,y\n0.5,2.0\n-0.5,-1.0\n"
        message = "eval: ridge labels must lie in [-1, 1]; " + NOT_NORMALIZED.format("labels")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_eval_set(self.eval_csv_config(tmp_path, body, base="ridge"), None)
        with pytest.raises(ValueError, match=r"^eval: logistic labels must be -1 or \+1"):
            build_eval_set(self.eval_csv_config(tmp_path, body), None)

    def test_eval_csv_is_not_normalized(self, configs_dir):
        # the training data's own file, normalized as data but not as eval
        with open(os.path.join(configs_dir, "vertebral_objective.yaml"), encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        raw["eval"] = {"kind": "csv", **{key: raw["data"][key] for key in ("path", "label_column", "label_map")}}
        config = config_from_dict(raw, base_dir=configs_dir)
        message = "eval: a feature norm exceeds 1; " + NOT_NORMALIZED.format("features")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_eval_set(config, build_dataset(config))

    def test_zero_one_logistic_labels_rejected_before_any_output(self, tmp_path):
        # 0/1 labels would stop the first solve; the run rejects them before
        # it makes its output directory, and label_map mends them
        body = "x0,y\n0.5,1\n-0.5,0\n0.25,1\n"
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=r"^data: logistic labels must be -1 or \+1; map them with label_map"):
            run_experiment(self.csv_config(tmp_path, body), str(out))
        with pytest.raises(ValueError, match="label_map"):
            write_dataset_files(self.csv_config(tmp_path, body), str(out))
        assert not out.exists()
        mapped = self.csv_config(tmp_path, body, label_map={"1": 1.0, "0": -1.0})
        np.testing.assert_array_equal(build_dataset(mapped).y, [1.0, -1.0, 1.0])


class TestNnEvalSet:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 3))
        y = np.where(rng.random(40) < 0.6, 1.0, -1.0)
        data = Dataset(X, y)
        got = build_nn_eval_set(data, np.random.default_rng(11), count=5)
        # replay the draw to learn the picked seed item, then rank by hand
        members = np.flatnonzero(y == 1.0)
        seed_idx = members[int(np.random.default_rng(11).integers(len(members)))]
        d2 = np.sum((X[members] - X[seed_idx]) ** 2, axis=1)
        ranked = members[np.argsort(d2, kind="stable")]
        expect = [i for i in ranked if i != seed_idx][:5]
        np.testing.assert_array_equal(got.X, X[expect])
        np.testing.assert_array_equal(got.y, -np.ones(5))

    def test_include_seed_keeps_it_first(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((20, 2))
        data = Dataset(X, np.ones(20))
        got = build_nn_eval_set(data, np.random.default_rng(3), count=4, include_seed=True)
        seed_idx = int(np.random.default_rng(3).integers(20))
        np.testing.assert_array_equal(got.X[0], X[seed_idx])

    def test_count_zero_gives_empty_set(self):
        data = Dataset(np.random.default_rng(7).standard_normal((5, 2)), np.ones(5))
        got = build_nn_eval_set(data, np.random.default_rng(0), count=0)
        assert got.n == 0

    def test_too_few_members(self):
        data = Dataset(np.random.default_rng(8).standard_normal((4, 2)), np.ones(4))
        with pytest.raises(ValueError):
            build_nn_eval_set(data, np.random.default_rng(0), count=4)


class TestExtremeItem:
    def test_min_and_max(self):
        data = Dataset([[0.1], [0.2], [0.3]], [4.0, 8.0, 6.0])
        low = pick_extreme_eval_item(data, "min", target_label=1.0)
        np.testing.assert_array_equal(low.X, [[0.1]])
        assert low.y[0] == 1.0
        high = pick_extreme_eval_item(data, "max", target_label=-1.0)
        np.testing.assert_array_equal(high.X, [[0.2]])
        assert high.y[0] == -1.0

    def test_bad_mode(self):
        data = Dataset([[0.1]], [1.0])
        with pytest.raises(ValueError):
            pick_extreme_eval_item(data, "median")


def small_estimation_setup():
    data = gen_1d_dataset(11, substream(0, STAGE_DATA))
    victim = VictimSpec("objective", "logistic", lam=5.0, epsilon=1.0)
    cost = CostSpec(goal=Goal.LABEL_TARGETING, eval_set=gen_eval_grid_1d(11))
    return victim, data, cost


class TestCostEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostEstimate(mean=0.1, stderr=0.0, samples=1, values=np.zeros(1))
        with pytest.raises(ValueError):
            CostEstimate(mean=0.1, stderr=-0.1, samples=2, values=np.zeros(2))


class TestEstimateAttackCost:
    def test_degenerate_noise_has_zero_spread(self):
        victim = VictimSpec("output", "logistic", lam=5.0, epsilon=1.0, noise_scale=1e-300)
        _, data, cost = small_estimation_setup()
        est = estimate_attack_cost(victim, data, cost, 20, seed=0)
        assert est.stderr <= 1e-12
        assert est.samples == 20

    def test_consistent_with_high_sample_reference(self):
        victim, data, cost = small_estimation_setup()
        ref = estimate_attack_cost(victim, data, cost, 3000, seed=100)
        est = estimate_attack_cost(victim, data, cost, 500, seed=200)
        gap = abs(est.mean - ref.mean)
        assert gap <= 3.0 * float(np.hypot(est.stderr, ref.stderr))

    def test_stderr_scales_with_sample_count(self):
        victim, data, cost = small_estimation_setup()
        narrow = estimate_attack_cost(victim, data, cost, 1600, seed=7)
        wide = estimate_attack_cost(victim, data, cost, 400, seed=8)
        assert wide.stderr / narrow.stderr == pytest.approx(2.0, abs=0.6)

    def test_draw_depends_only_on_seed_and_index(self):
        # draw s comes from substream(seed, s) alone and is solved in a
        # block of fixed shape, so a shorter estimate is a bit-exact prefix
        # of a longer one, also when its last block is padded
        victim, data, cost = small_estimation_setup()
        long = estimate_attack_cost(victim, data, cost, 130, seed=5)
        for T_e in (5, 32, 33, 100):
            short = estimate_attack_cost(victim, data, cost, T_e, seed=5)
            np.testing.assert_array_equal(long.values[:T_e], short.values)

    @pytest.mark.parametrize("loss", ["logistic", "squared"])
    @pytest.mark.parametrize("goal", list(Goal))
    def test_stacked_evaluation_keeps_draws_independent(self, goal, loss):
        # each block is evaluated by one eval_cost call over its padded
        # stack, so draw s still depends only on (seed, s) for every goal
        victim, data, _ = small_estimation_setup()
        if goal is Goal.PARAMETER_TARGETING:
            cost = CostSpec(goal=goal, target_model=ModelParams(np.array([0.7])), loss=loss)
        else:
            cost = CostSpec(goal=goal, eval_set=gen_eval_grid_1d(11), loss=loss)
        long = estimate_attack_cost(victim, data, cost, 70, seed=3)
        for T_e in (2, 32, 45):
            short = estimate_attack_cost(victim, data, cost, T_e, seed=3)
            np.testing.assert_array_equal(long.values[:T_e], short.values)

    @pytest.mark.parametrize("seed", [-1, 2**128 + 1, 1.5])
    def test_seed_that_would_alias_another_is_refused(self, seed):
        # -1 would replay the draws of 2**128 - 1, 2**128 + 1 and 1.5 those of 1
        victim, data, cost = small_estimation_setup()
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**128), got {seed!r}")):
            estimate_attack_cost(victim, data, cost, 10, seed)

    def test_one_eval_cost_call_per_block(self, monkeypatch):
        import dppoison.harness.montecarlo as montecarlo

        stacks = []

        def counted(cost, models):
            stacks.append(len(models.theta))
            return eval_cost(cost, models)

        monkeypatch.setattr(montecarlo, "eval_cost", counted)
        victim, data, cost = small_estimation_setup()
        estimate_attack_cost(victim, data, cost, 70, seed=0)
        assert stacks == [32, 32, 32]

    @pytest.mark.parametrize(
        "base, name", [("logistic", "_logistic"), ("ridge", "_ridge")]
    )
    @pytest.mark.parametrize("T_e", [20, 100])
    def test_output_victim_solves_base_once_per_estimate(self, monkeypatch, base, name, T_e):
        # the base solve does not depend on the noise, so every block of an
        # estimate shares one solve, cached on the dataset; train_mechanism
        # calls the trainers' unchecked solvers
        import dppoison.learners as learners

        solver = getattr(learners, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solver(*args, **kwargs)

        monkeypatch.setattr(learners, name, counted)
        _, data, cost = small_estimation_setup()
        victim = VictimSpec("output", base, lam=5.0, epsilon=1.0, rho=1.0 if base == "ridge" else None)
        first = estimate_attack_cost(victim, data, cost, T_e, seed=0)
        assert len(calls) == 1
        # a second estimate on the same data reuses it, with the same draws
        again = estimate_attack_cost(victim, data, cost, T_e, seed=0)
        assert len(calls) == 1
        np.testing.assert_array_equal(first.values, again.values)

    # An output victim's model is theta* + b, and the Gamma(d, s) radius of
    # b gives E||b||^2 = d(d+1)s^2, so E_b[C(theta* + b)] has a closed form
    # for the quadratic costs; the estimate must lie within 3 standard
    # errors of it.
    def test_output_victim_squared_label_targeting_matches_closed_form(self, configs_dir):
        # C(theta*) + (d+1)s^2 mean||x||^2 / 2 over the evaluation set
        cfg = load_config(os.path.join(configs_dir, "wine_output.yaml"))
        data = build_dataset(cfg)
        cost = build_cost(cfg, data, build_eval_set(cfg, data))
        victim, d, X = cfg.victim, data.dim, cost.eval_set.X
        s = victim.noise_scale_for(data.n)
        clean = eval_cost(cost, train_mechanism(victim, data, np.zeros(d)))
        exact = clean + 0.5 * (d + 1) * s * s * np.mean(np.einsum("ij,ij->i", X, X))
        assert exact == pytest.approx(0.43064480, abs=1e-8)
        est = estimate_attack_cost(victim, data, cost, 2000, seed=7)
        assert abs(est.mean - exact) <= 3.0 * est.stderr

    def test_output_victim_parameter_targeting_matches_closed_form(self):
        # C(theta*) + d(d+1)s^2 / 2
        data = gen_2d_dataset(20, np.array([1.0, 1.0]), substream(0, STAGE_DATA))
        victim = VictimSpec("output", "logistic", lam=2.0, epsilon=1.0)
        cost = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=ModelParams(np.array([0.5, -0.5])))
        s, d = victim.noise_scale_for(data.n), data.dim
        exact = eval_cost(cost, train_mechanism(victim, data, np.zeros(d))) + 0.5 * d * (d + 1) * s * s
        est = estimate_attack_cost(victim, data, cost, 4000, seed=7)
        assert abs(est.mean - exact) <= 3.0 * est.stderr

    def test_solver_failure_propagates(self, monkeypatch):
        import dppoison.harness.montecarlo as montecarlo

        def fails(*args, **kwargs):
            raise SolverError("instrumented failure")

        monkeypatch.setattr(montecarlo, "train_mechanism", fails)
        victim, data, cost = small_estimation_setup()
        with pytest.raises(SolverError):
            estimate_attack_cost(victim, data, cost, 8, seed=0)


class TestCurveIterations:
    def test_even_spacing(self):
        np.testing.assert_array_equal(curve_iterations(300, 21), np.arange(0, 301, 15))

    def test_short_runs_deduplicate(self):
        np.testing.assert_array_equal(curve_iterations(3, 21), [0, 1, 2, 3])

    def test_endpoints_always_present(self):
        got = curve_iterations(5000, 21)
        assert got[0] == 0 and got[-1] == 5000


ONE_D_CONFIG = textwrap.dedent(
    """
    victim:
      mechanism: objective
      base: logistic
      lam: 10.0
      epsilon: 0.5
    cost:
      goal: label-aversion
      loss: logistic
    data:
      kind: gen-1d
      n: 11
    eval:
      kind: grid-1d
      m: 11
    attack:
      k: 11
      T: 20
      mode: dpv
      T_eval: 40
    seed: 3
    curve_points: 5
    """
)


@pytest.fixture()
def one_d_config_path(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(ONE_D_CONFIG)
    return str(path)


def read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestConfigParsing:
    def test_shipped_configs_round_trip(self, configs_dir):
        names = sorted(os.listdir(configs_dir))
        assert len(names) == 12
        for name in names:
            cfg = load_config(os.path.join(configs_dir, name))
            again = config_from_dict(config_to_dict(cfg))
            assert again == cfg, name

    @pytest.mark.parametrize(
        "section, key",
        [
            ("top", "spice"),
            ("victim", "spice"),
            ("cost", "spice"),
            ("data", "spice"),
            ("eval", "spice"),
            ("attack", "spice"),
            ("sweep", "spice"),
            # an attack's seed is a run_attack argument, set from the
            # top-level seed
            ("attack", "seed"),
        ],
    )
    def test_unknown_key_rejected(self, section, key):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["sweep"] = {"kind": "k", "values": [2, 5]}
        (raw if section == "top" else raw[section])[key] = 1
        with pytest.raises(ValueError, match=f"unknown keys.*{key}"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("top", "victim"),
            ("top", "cost"),
            ("top", "data"),
            ("top", "attack"),
            ("victim", "mechanism"),
            ("victim", "base"),
            ("victim", "lam"),
            ("victim", "epsilon"),
            ("cost", "goal"),
            ("data", "kind"),
            ("attack", "k"),
            ("attack", "T"),
            ("sweep", "kind"),
            ("sweep", "values"),
        ],
    )
    def test_missing_required_key_rejected(self, section, key):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["sweep"] = {"kind": "k", "values": [2, 5]}
        del (raw if section == "top" else raw[section])[key]
        with pytest.raises(ValueError, match=key):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (None, "config section 'top level' needs 'victim'"),
            ({"victim": 5}, "config section 'victim' must be a mapping"),
        ],
        ids=["null-config", "scalar-section"],
    )
    def test_config_that_is_no_tree_of_mappings(self, raw, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(raw)

    def test_section_keys(self):
        # every key each section accepts: adding one is a new config option
        raw = config_to_dict(config_from_dict(yaml.safe_load(ONE_D_CONFIG)))
        assert {k: sorted(v) if isinstance(v, dict) else None for k, v in raw.items()} == {
            "victim": ["base", "delta", "epsilon", "lam", "mechanism", "noise_scale", "rho"],
            "cost": ["cbar", "goal", "loss", "target"],
            "data": [
                "feature_columns", "kind", "label_column", "label_map", "label_range",
                "n", "normalize", "normalize_labels", "path", "theta_star",
            ],
            "eval": [
                "class_label", "count", "extreme", "feature_columns", "include_seed",
                "kind", "label_column", "label_map", "m", "path", "target_label",
            ],
            "attack": ["T", "T_eval", "alpha", "eta", "k", "m_select", "mode", "relax_T", "selection"],
            "seed": None,
            "sweep": None,
            "curve_points": None,
        }

    def test_missing_file_rejected(self, tmp_path):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["data"] = {"kind": "csv", "path": str(tmp_path / "nope.csv")}
        with pytest.raises(ValueError, match="nope.csv"):
            config_from_dict(raw)

    def test_sweep_values_must_increase(self):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["sweep"] = {"kind": "k", "values": [5, 5, 7]}
        with pytest.raises(ValueError):
            config_from_dict(raw)

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("victim", "lam"),
            ("victim", "epsilon"),
            ("victim", "rho"),
            ("victim", "noise_scale"),
            ("attack", "eta"),
            ("attack", "alpha"),
            ("cost", "cbar"),
        ],
    )
    def test_non_finite_parameter_rejected_at_load(self, tmp_path, section, key, value):
        # nan passes every "<= 0" range check and inf makes the default
        # noise scale 0; both must stop the config before anything runs
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw[section][key] = yaml.safe_load(value)
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            load_config(str(path))

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("attack", "k"),
            ("attack", "T"),
            ("attack", "m_select"),
            ("attack", "T_eval"),
            ("attack", "relax_T"),
            ("data", "n"),
            ("eval", "m"),
            ("eval", "count"),
            ("top level", "seed"),
            ("top level", "curve_points"),
        ],
    )
    def test_non_integer_count_rejected_at_load(self, tmp_path, section, key, value):
        # int() would truncate 2.5, and a bool passes as an int; both, and
        # a string, must stop the config before anything is written
        raw = yaml.safe_load(ONE_D_CONFIG)
        (raw if section == "top level" else raw[section])[key] = value
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
            main(["attack", "--config", str(path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_epsilon_sweep_value_rejected(self, value):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["sweep"] = {"kind": "epsilon", "values": [0.1, value]}
        with pytest.raises(ValueError, match="finite"):
            config_from_dict(raw)

    def test_epsilon_sweep_value_with_no_noise_scale_rejected(self):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["sweep"] = {"kind": "epsilon", "values": [1e-309, 0.1]}
        with pytest.raises(ValueError, match="noise scale"):
            config_from_dict(raw)

    def test_epsilon_sweep_with_a_fixed_noise_scale_rejected(self):
        # the override fixes every row's noise, so no row would run its epsilon
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["victim"]["noise_scale"] = 5.0
        raw["sweep"] = {"kind": "epsilon", "values": [0.1, 1.0]}
        with pytest.raises(ValueError, match="^an epsilon sweep needs the victim's noise_scale unset"):
            config_from_dict(raw)
        raw["sweep"]["kind"] = "k"  # a k sweep keeps the victim's one noise scale
        raw["sweep"]["values"] = [2, 5]
        assert config_from_dict(raw).victim.noise_scale == 5.0

    def test_parameter_target_list_stored_as_tuple(self):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["cost"] = {"goal": "parameter-targeting", "target": [np.float32(-1.5)]}
        cost = config_from_dict(raw).cost
        assert cost.target == (-1.5,) and type(cost.target[0]) is float
        assert hash(cost) == hash(config_from_dict(config_to_dict(config_from_dict(raw))).cost)
        raw["cost"]["target"] = "fit-eval"
        assert config_from_dict(raw).cost.target == "fit-eval"

    def test_seed_override(self, one_d_config_path):
        cfg = load_config(one_d_config_path, seed=99)
        assert cfg.seed == 99


class TestRunExperiment:
    def test_attack_curve_outputs(self, one_d_config_path, tmp_path):
        cfg = load_config(one_d_config_path)
        out = tmp_path / "run"
        summary = run_experiment(cfg, str(out))
        assert summary["error"] is None

        header, rows = read_csv_rows(out / "costs.csv")
        assert header == ["iteration", "mean", "stderr", "lower_bound"]
        assert [int(r[0]) for r in rows] == [0, 5, 10, 15, 20]
        # first curve point is the clean estimate itself
        assert float(rows[0][1]) == summary["clean_cost"]["mean"]
        # label aversion: costs are nonpositive, bound is a floor
        for r in rows:
            mean, se, bound = float(r[1]), float(r[2]), float(r[3])
            assert mean <= 0.0
            assert mean - 2.0 * se >= bound

        theader, trows = read_csv_rows(out / "trace.csv")
        assert theader == ["iteration", "item", "x0", "y"]
        assert len(trows) == 5 * 11

        with open(out / "summary.json", encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk["seed"] == 3
        assert on_disk["lower_bound"] == summary["lower_bound"]
        assert len(on_disk["curve"]) == 5
        assert on_disk["final_cost"]["iteration"] == 20

    def test_rerun_is_bit_identical(self, one_d_config_path, tmp_path):
        cfg = load_config(one_d_config_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, str(a))
        run_experiment(cfg, str(b))
        for name in ("costs.csv", "trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_summary_model_is_the_final_surrogate(self, one_d_config_path, tmp_path):
        # the summary's model is the one whose cost is final_surrogate_cost
        cfg = load_config(one_d_config_path)
        summary = run_experiment(cfg, str(tmp_path / "run"))
        data = build_dataset(cfg)
        cost = build_cost(cfg, data, build_eval_set(cfg, data))
        model = summary["final_surrogate_model"]
        got = eval_cost(cost, ModelParams(np.array(model["theta"]), model["mu"]))
        assert got == summary["final_surrogate_cost"]

    def test_echoed_config_reproduces_run(self, one_d_config_path, tmp_path):
        cfg = load_config(one_d_config_path)
        a, b = tmp_path / "a", tmp_path / "b"
        summary = run_experiment(cfg, str(a))
        echoed = config_from_dict(summary["config"])
        assert echoed == cfg
        run_experiment(echoed, str(b))
        assert (a / "costs.csv").read_bytes() == (b / "costs.csv").read_bytes()

    @pytest.mark.parametrize(
        "victim, eval_kind, target",
        [({}, "none", [0.5]), ({"base": "ridge", "rho": 1.0}, "grid-1d", "fit-eval")],
        ids=["explicit-target-without-eval-set", "ridge-fit-eval"],
    )
    def test_parameter_targeting_runs(self, tmp_path, victim, eval_kind, target):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["victim"].update(victim)
        raw["eval"] = {"kind": eval_kind, "m": 11}
        raw["cost"] = {"goal": "parameter-targeting", "loss": "squared", "target": target}
        raw["attack"].update(T=3, T_eval=8)
        cfg = config_from_dict(raw)
        data = build_dataset(cfg)
        eval_set = build_eval_set(cfg, data)
        if target == "fit-eval":
            want = learners.train_base_ridge_constrained(eval_set, cfg.victim.lam, cfg.victim.rho).theta
        else:
            assert eval_set is None
            want = target
        np.testing.assert_array_equal(build_cost(cfg, data, eval_set).target_model.theta, want)
        summary = run_experiment(cfg, str(tmp_path / "run"))
        assert summary["error"] is None and summary["final_cost"]["iteration"] == 3

    def test_fit_eval_needs_a_nonempty_evaluation_set(self, tmp_path):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["eval"] = {"kind": "nn-flip", "count": 0}
        raw["cost"] = {"goal": "parameter-targeting", "loss": "squared", "target": "fit-eval"}
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="^target 'fit-eval' needs a nonempty evaluation set$"):
            run_experiment(config_from_dict(raw), str(out))
        assert not out.exists()

    def test_label_goal_without_eval_set_is_refused_before_output(self, tmp_path):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["eval"] = {"kind": "none"}
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=r"^label-aversion needs an evaluation set \(eval kind is 'none'\)$"):
            run_experiment(config_from_dict(raw), str(out))
        assert not out.exists()

    def test_attack_error_recorded_not_raised(self, one_d_config_path, tmp_path, monkeypatch):
        import dppoison.harness.experiment as experiment

        def boom(victim, data, cost, T_e, seed):
            raise SolverError("instrumented failure")

        monkeypatch.setattr(experiment, "estimate_attack_cost", boom)
        cfg = load_config(one_d_config_path)
        out = tmp_path / "broken"
        summary = run_experiment(cfg, str(out))
        assert "instrumented failure" in summary["error"]
        assert (out / "summary.json").exists()
        assert (out / "costs.csv").exists()

    @pytest.mark.parametrize(
        "run, sweep",
        [
            (run_experiment, None),
            (run_experiment, {"kind": "k", "values": [1, 2]}),
            # an epsilon sweep checks each row after the attacks, which
            # call neither patched function
            (run_experiment, {"kind": "epsilon", "values": [0.5, 1.0]}),
            (run_evaluation, None),
        ],
        ids=["attack", "k-sweep", "epsilon-sweep", "evaluate"],
    )
    def test_cbar_below_clean_cost_stops_before_the_attack(self, tmp_path, monkeypatch, run, sweep):
        import dppoison.harness.experiment as experiment

        def no_attack(*args, **kwargs):
            raise AssertionError("the attack ran")

        monkeypatch.setattr(experiment, "run_attack", no_attack)
        monkeypatch.setattr(experiment, "selection_scores", no_attack)
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["cost"]["cbar"] = 0.001
        raw["attack"].update(T=5, T_eval=20, selection="shallow")
        raw["sweep"] = sweep
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=r"^\|j_clean\| = \S+ cannot exceed cbar = 0.001, which bounds \|C\|$"):
            run(config_from_dict(raw), str(out))
        assert not out.exists()

    def test_solver_failure_message_reaches_the_summary(self, tmp_path, monkeypatch):
        # the attack completes, then each solve is cut to one Newton step, so
        # the first curve estimate fails with the solver's own message
        config = config_from_dict(yaml.safe_load(ONE_D_CONFIG))
        run_experiment(config, str(tmp_path / "whole"))

        def attack_then_cut(*args, **kwargs):
            trace = run_attack(*args, **kwargs)
            monkeypatch.setattr(learners, "MAX_ITERS", 1)
            return trace

        monkeypatch.setattr(experiment, "run_attack", attack_then_cut)
        out = tmp_path / "run"
        summary = run_experiment(config, str(out))
        error = "solver failure after 1 cost rows: logistic solver did not converge within 1 iterations"
        assert summary["error"] == error
        assert json.loads((out / "summary.json").read_text())["error"] == error
        whole = (tmp_path / "whole" / "costs.csv").read_bytes().split(b"\r\n")
        assert (out / "costs.csv").read_bytes() == b"\r\n".join(whole[:2] + [b""])
        assert (out / "trace.csv").read_bytes() == (tmp_path / "whole" / "trace.csv").read_bytes()

    def test_failed_selection_keeps_the_clean_row(self, tmp_path, monkeypatch):
        import dppoison.attacks as attacks

        def boom(*args, **kwargs):
            raise SolverError("instrumented failure")

        monkeypatch.setattr(attacks, "selection_scores", boom)
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["attack"].update(k=3, selection="shallow")
        out = tmp_path / "run"
        summary = run_experiment(config_from_dict(raw), str(out))
        assert summary["error"] == "solver failure after 1 cost rows: instrumented failure"
        assert [c["iteration"] for c in summary["curve"]] == [0]
        _, rows = read_csv_rows(out / "costs.csv")
        assert [r[0] for r in rows] == ["0"]
        assert not (out / "trace.csv").exists()

    def test_numpy_integer_fields_reach_summary_json(self, tmp_path):
        cfg = config_from_dict(yaml.safe_load(ONE_D_CONFIG))
        attack = dataclasses.replace(cfg.attack, k=np.int64(11), T=np.int64(4), eta=np.float32(1.0))
        cfg = dataclasses.replace(cfg, attack=attack, data=dataclasses.replace(cfg.data, n=np.int64(11)))
        cfg = dataclasses.replace(cfg, victim=dataclasses.replace(cfg.victim, lam=np.float32(10.0)))
        run_experiment(cfg, str(tmp_path / "run"))
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert (summary["config"]["attack"]["k"], summary["config"]["attack"]["T"]) == (11, 4)
        assert summary["config"]["data"]["n"] == 11
        # numpy floats too: np.float32 is not JSON serializable
        assert (summary["config"]["victim"]["lam"], summary["config"]["attack"]["eta"]) == (10.0, 1.0)

    def test_attack_solver_failure_keeps_iteration_zero(
        self, one_d_config_path, tmp_path, monkeypatch
    ):
        import dppoison.attacks as attacks

        def boom(*args, **kwargs):
            raise SolverError("instrumented failure")

        monkeypatch.setattr(attacks, "train_mechanism", boom)
        cfg = load_config(one_d_config_path)
        out = tmp_path / "broken"
        summary = run_experiment(cfg, str(out))
        assert "instrumented failure" in summary["error"]
        assert "final_surrogate_cost" not in summary
        _, rows = read_csv_rows(out / "costs.csv")
        assert [r[0] for r in rows] == ["0"]
        _, trows = read_csv_rows(out / "trace.csv")
        assert len(trows) == 11
        assert {r[0] for r in trows} == {"0"}

    def test_monte_carlo_failure_keeps_the_attack_error(
        self, one_d_config_path, tmp_path, monkeypatch
    ):
        import dppoison.attacks as attacks
        import dppoison.harness.experiment as experiment

        warm, estimates = [], []

        def third_step_fails(*args, warm_start=None, **kwargs):
            if warm_start is not None:
                warm.append(1)
                if len(warm) == 3:
                    raise SolverError("attack failure")
            return train_mechanism(*args, warm_start=warm_start, **kwargs)

        def second_estimate_fails(*args):
            estimates.append(1)
            if len(estimates) == 2:
                raise SolverError("estimate failure")
            return estimate_attack_cost(*args)

        monkeypatch.setattr(attacks, "train_mechanism", third_step_fails)
        monkeypatch.setattr(experiment, "estimate_attack_cost", second_estimate_fails)
        out = tmp_path / "broken"
        summary = run_experiment(load_config(one_d_config_path), str(out))
        assert summary["error"] == (
            "solver failure after 2 steps: attack failure; "
            "solver failure after 1 cost rows: estimate failure"
        )
        _, rows = read_csv_rows(out / "costs.csv")
        assert [r[0] for r in rows] == ["0"]
        # the attack failed after 2 steps: trace.csv holds the curve's
        # recorded iterations below 2 (only 0) and step 2 itself
        _, trows = read_csv_rows(out / "trace.csv")
        assert [r[0] for r in trows] == ["0"] * 11 + ["2"] * 11

    def test_attack_records_only_the_curve_iterations(self, one_d_config_path, tmp_path, monkeypatch):
        traces = []

        def captured(*args, **kwargs):
            traces.append(run_attack(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(experiment, "run_attack", captured)
        cfg = load_config(one_d_config_path)
        summary = run_experiment(cfg, str(tmp_path / "run"))
        assert summary["error"] is None
        [trace] = traces
        want = curve_iterations(cfg.attack.T, cfg.curve_points)
        assert trace.features.shape[0] == len(want) == 5
        np.testing.assert_array_equal(trace.iterations, want)
        assert [c["iteration"] for c in summary["curve"]] == want.tolist()

    def test_budget_size_still_beats_smaller_budget(self, tmp_path):
        # qualitative check: a 10-item budget leaves the attacker strictly
        # worse off than poisoning everything
        from dppoison import AttackConfig, run_attack

        data = gen_2d_dataset(60, (1.0, 1.0), substream(2, STAGE_DATA))
        victim = VictimSpec("objective", "logistic", lam=10.0, epsilon=0.1)
        cost = CostSpec(goal=Goal.LABEL_TARGETING, eval_set=gen_eval_grid_2d())
        small = AttackConfig(k=10, T=150, selection="deep", mode="sv")
        full = AttackConfig(k=60, T=150, mode="sv")
        j_small = run_attack(victim, data, cost, small).surrogate_costs[-1]
        j_full = run_attack(victim, data, cost, full).surrogate_costs[-1]
        assert j_full < j_small


class TestRunEvaluation:
    def test_single_row_and_bound(self, one_d_config_path, tmp_path):
        cfg = load_config(one_d_config_path)
        out = tmp_path / "eval"
        summary = run_evaluation(cfg, str(out))
        assert summary["error"] is None
        header, rows = read_csv_rows(out / "costs.csv")
        assert header == ["iteration", "mean", "stderr", "lower_bound"]
        assert len(rows) == 1
        assert not (out / "trace.csv").exists()
        assert summary["lower_bound"] <= 0.0  # aversion cost floor


class TestWriteDatasetFiles:
    def test_writes_dataset_and_eval(self, one_d_config_path, tmp_path):
        cfg = load_config(one_d_config_path)
        out = tmp_path / "gen"
        written = write_dataset_files(cfg, str(out))
        data = load_csv_dataset(written["dataset"])
        assert (data.n, data.dim) == (11, 1)
        grid = load_csv_dataset(written["eval"])
        assert grid.n == 11

    def test_dataset_matches_experiment_data(self, one_d_config_path, tmp_path):
        # the same seed must generate the same dataset in both entry points
        from dppoison.harness.experiment import build_dataset

        cfg = load_config(one_d_config_path)
        written = write_dataset_files(cfg, str(tmp_path / "gen"))
        on_disk = load_csv_dataset(written["dataset"])
        rebuilt = build_dataset(cfg)
        np.testing.assert_array_equal(on_disk.X, rebuilt.X)
        np.testing.assert_array_equal(on_disk.y, rebuilt.y)


class TestSweepConfigs:
    def test_tiny_k_sweep(self, tmp_path):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["attack"]["selection"] = "shallow"
        raw["attack"]["m_select"] = 5
        raw["sweep"] = {"kind": "k", "values": [2, 5, 8]}
        cfg = config_from_dict(raw)
        out = tmp_path / "ksweep"
        summary = run_experiment(cfg, str(out))
        assert summary["error"] is None
        header, rows = read_csv_rows(out / "costs.csv")
        assert header == ["k", "mean", "stderr", "lower_bound"]
        assert [int(r[0]) for r in rows] == [2, 5, 8]
        for r in rows:
            assert float(r[1]) - 2.0 * float(r[2]) >= float(r[3])

    def test_tiny_epsilon_sweep(self, tmp_path):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["sweep"] = {"kind": "epsilon", "values": [0.5, 1.0]}
        cfg = config_from_dict(raw)
        out = tmp_path / "esweep"
        summary = run_experiment(cfg, str(out))
        assert summary["error"] is None
        header, rows = read_csv_rows(out / "costs.csv")
        assert header == ["epsilon", "mean", "stderr", "lower_bound"]
        assert [float(r[0]) for r in rows] == [0.5, 1.0]
        for r in rows:
            assert float(r[1]) - 2.0 * float(r[2]) >= float(r[3])

    @pytest.mark.parametrize("selection", ["shallow", "deep"])
    def test_k_sweep_rows_attack_what_a_lone_attack_selects(self, tmp_path, monkeypatch, selection):
        # the sweep ranks the items once; row k must attack the items a
        # single attack with budget k and the config's seed selects
        import dppoison.harness.experiment as experiment

        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["attack"].update(selection=selection, m_select=5, T=5)
        raw["sweep"] = {"kind": "k", "values": [2, 5, 8]}
        cfg = config_from_dict(raw)
        rows = []

        def recording(victim, data, cost, config, selections, seeds, scales):
            rows.extend(zip(cfg.sweep.values, selections))
            return sweep_attacks(victim, data, cost, config, selections, seeds, scales)

        monkeypatch.setattr(experiment, "sweep_attacks", recording)
        assert run_experiment(cfg, str(tmp_path / "ksweep"))["error"] is None
        data = build_dataset(cfg)
        cost = build_cost(cfg, data, build_eval_set(cfg, data))
        assert [k for k, _ in rows] == [2, 5, 8]
        for k, selected in rows:
            lone = run_attack(cfg.victim, data, cost, dataclasses.replace(cfg.attack, k=k), cfg.seed)
            np.testing.assert_array_equal(selected, lone.selected)

    def test_failed_row_attack_ends_the_sweep(self, tmp_path, monkeypatch):
        # the failed row is not written, the rows before it are, and the
        # error names the row
        import dppoison.attacks as attacks

        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["attack"].update(selection="shallow", mode="sv", T=3)
        raw["sweep"] = {"kind": "k", "values": [2, 5, 8]}
        stacked = []

        def row_two_fails_at_its_second_step(X, y, lam, B, warm_start=None):
            # the rows step in lockstep, one lane per row in row order, so
            # row 2 (k=5) is row 1 of each stacked solve
            stacked.append(1)
            if len(stacked) == 2:
                raise SolverError("instrumented failure", [1])
            return learners._solve_logistic_rows(X, y, lam, B, warm_start)

        monkeypatch.setattr(attacks, "_solve_logistic_rows", row_two_fails_at_its_second_step)
        out = tmp_path / "ksweep"
        summary = run_experiment(config_from_dict(raw), str(out))
        assert summary["error"] == (
            "solver failure after 1 cost rows: k=5: solver failure after 1 steps: instrumented failure"
        )
        _, rows = read_csv_rows(out / "costs.csv")
        assert [r[0] for r in rows] == ["2"]
        assert [row["k"] for row in summary["sweep_rows"]] == [2]

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failed_row_selection_ends_the_epsilon_sweep(self, tmp_path, monkeypatch, failing):
        # the epsilon sweep selects every row's items first, in row order;
        # a failed selection keeps the rows before it and writes no other,
        # and when the first row's selection fails no attack solve is made
        import dppoison.attacks as attacks

        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["attack"].update(k=4, selection="shallow", m_select=3, T=3)
        raw["sweep"] = {"kind": "epsilon", "values": [0.5, 1.0, 2.0]}
        calls, solves = [], []

        def selection_fails(*args):
            calls.append(1)
            if len(calls) == failing:
                raise SolverError("instrumented failure")
            return shallow_scores(*args)

        def counted(*args, **kwargs):
            solves.append(1)
            return train_mechanism(*args, **kwargs)

        monkeypatch.setattr(attacks, "shallow_scores", selection_fails)
        monkeypatch.setattr(attacks, "train_mechanism", counted)
        out = tmp_path / "esweep"
        summary = run_experiment(config_from_dict(raw), str(out))
        kept = [0.5, 1.0][: failing - 1]
        row = f"epsilon={[0.5, 1.0][failing - 1]}"
        assert summary["error"] == f"solver failure after {len(kept)} cost rows: {row}: instrumented failure"
        assert len(calls) == failing
        _, rows = read_csv_rows(out / "costs.csv")
        assert [float(r[0]) for r in rows] == kept
        assert [row["epsilon"] for row in summary["sweep_rows"]] == kept
        if failing == 1:
            assert solves == []

    def test_failed_row_attack_ends_the_epsilon_sweep_before_its_estimate(self, tmp_path, monkeypatch):
        # row 2's attack fails: row 1 is estimated (clean and poisoned),
        # row 2 is not, and the error names row 2 and its attack failure
        import dppoison.attacks as attacks
        import dppoison.harness.experiment as experiment

        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["attack"].update(k=4, selection="shallow", mode="sv", m_select=3, T=3)
        raw["sweep"] = {"kind": "epsilon", "values": [0.5, 1.0, 2.0]}
        stacked, estimated = [], []

        def row_two_fails_at_its_second_step(X, y, lam, B, warm_start=None):
            stacked.append(1)
            if len(stacked) == 2:
                raise SolverError("instrumented failure", [1])
            return learners._solve_logistic_rows(X, y, lam, B, warm_start)

        def recorded(victim, *args):
            estimated.append(victim.epsilon)
            return estimate_attack_cost(victim, *args)

        monkeypatch.setattr(attacks, "_solve_logistic_rows", row_two_fails_at_its_second_step)
        monkeypatch.setattr(experiment, "estimate_attack_cost", recorded)
        out = tmp_path / "esweep"
        summary = run_experiment(config_from_dict(raw), str(out))
        assert summary["error"] == (
            "solver failure after 1 cost rows: epsilon=1.0: solver failure after 1 steps: instrumented failure"
        )
        assert estimated == [0.5, 0.5]
        _, rows = read_csv_rows(out / "costs.csv")
        assert [float(r[0]) for r in rows] == [0.5]

    def test_zero_budget_row_draws_no_noise_and_makes_no_solve(self, tmp_path, monkeypatch):
        # the k = 0 lane never moves: only the other rows' lanes draw noise
        # and join the stacked solves, and its row estimates the clean data
        import dppoison.attacks as attacks

        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["attack"].update(selection="shallow", m_select=5, T=3)
        raw["sweep"] = {"kind": "k", "values": [0, 2, 5]}
        cfg = config_from_dict(raw)
        draws, stacks = [], []

        def counted_noise(*args):
            draws.append(1)
            return sample_noise(*args)

        def recorded(X, y, lam, B, warm_start=None):
            stacks.append(len(B))
            return learners._solve_logistic_rows(X, y, lam, B, warm_start)

        monkeypatch.setattr(attacks, "sample_noise", counted_noise)
        monkeypatch.setattr(attacks, "_solve_logistic_rows", recorded)
        out = tmp_path / "ksweep"
        summary = run_experiment(cfg, str(out))
        assert summary["error"] is None
        assert len(draws) == cfg.attack.m_select + 2 * cfg.attack.T
        assert stacks == [2] * cfg.attack.T
        data = build_dataset(cfg)
        cost = build_cost(cfg, data, build_eval_set(cfg, data))
        seed = subseed(cfg.seed, STAGE_MC_POISONED, 0)
        clean = estimate_attack_cost(cfg.victim, data, cost, cfg.attack.T_eval, seed)
        assert summary["sweep_rows"][0]["mean"] == clean.mean

    def test_sweep_k_beyond_n_rejected(self, tmp_path):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["attack"]["selection"] = "shallow"
        raw["sweep"] = {"kind": "k", "values": [2, 50]}
        cfg = config_from_dict(raw)
        with pytest.raises(ValueError, match="k=50 exceeds dataset size n=11"):
            run_experiment(cfg, str(tmp_path / "bad"))
        assert not (tmp_path / "bad").exists()


class TestBudgetChecks:
    @pytest.mark.parametrize(
        "attack, sweep, match",
        [
            ({"k": 12, "selection": "shallow"}, None, "k=12 exceeds dataset size n=11"),
            ({"k": 12, "selection": "shallow"}, [0.5, 1.0], "k=12 exceeds dataset size n=11"),
        ],
    )
    def test_attack_budget_rejected_before_any_output(self, tmp_path, attack, sweep, match):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["attack"].update(attack)
        if sweep is not None:
            raw["sweep"] = {"kind": "epsilon", "values": sweep}
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=match):
            run_experiment(config_from_dict(raw), str(out))
        assert not out.exists()

    def test_evaluation_ignores_the_selection(self, tmp_path):
        raw = yaml.safe_load(ONE_D_CONFIG)
        raw["attack"]["k"] = 5
        summary = run_evaluation(config_from_dict(raw), str(tmp_path / "eval"))
        assert summary["error"] is None
