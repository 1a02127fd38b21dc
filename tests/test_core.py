"""Domain types, cost evaluation, projection, and modification distance."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppoison import (
    CostSpec,
    Dataset,
    Goal,
    ModelParams,
    Sign,
    VictimSpec,
    eval_cost,
    modification_distances,
    project_rows_inplace,
    sigmoid,
    softplus,
)

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def vec(*xs):
    return np.array(xs, dtype=float)


class TestDataset:
    def test_shapes_and_accessors(self):
        d = Dataset([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], [1.0, -1.0, 1.0])
        assert d.n == len(d) == 3
        assert d.dim == 2
        assert d.y[1] == -1.0
        np.testing.assert_array_equal(d.X[1], [0.3, 0.4])

    def test_arrays_are_readonly(self):
        d = Dataset([[0.1], [0.2]], [1.0, -1.0])
        with pytest.raises(ValueError):
            d.X[0, 0] = 9.0
        with pytest.raises(ValueError):
            d.y[0] = 9.0

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset([[0.1], [0.2]], [1.0])

    def test_features_must_be_a_matrix(self):
        with pytest.raises(ValueError, match=r"^features must be a 2d array \(n items by d features\)$"):
            Dataset([0.1, 0.2], [1.0, -1.0])

    def test_with_modified_leaves_original_untouched(self):
        d = Dataset([[0.1], [0.2], [0.3]], [1.0, 1.0, -1.0])
        d2 = d.with_modified([1], vec(0.9)[None, :], vec(-1.0))
        assert d.X[1, 0] == 0.2 and d.y[1] == 1.0
        assert d2.X[1, 0] == 0.9 and d2.y[1] == -1.0
        # untouched rows identical, indices stable
        np.testing.assert_array_equal(d2.X[[0, 2]], d.X[[0, 2]])
        assert not (d2.X.flags.writeable or d2.y.flags.writeable)

    @pytest.mark.parametrize(
        "features, labels", [([[np.nan]], [-1.0]), ([[0.9]], [np.inf])], ids=["nan-feature", "inf-label"]
    )
    def test_with_modified_rejects_non_finite(self, features, labels):
        d = Dataset([[0.1], [0.2], [0.3]], [1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="finite"):
            d.with_modified([1], features, labels)
        np.testing.assert_array_equal(d.X, [[0.1], [0.2], [0.3]])
        np.testing.assert_array_equal(d.y, [1.0, 1.0, -1.0])

    @pytest.mark.parametrize(
        "features, labels",
        [([[np.nan, 5.0]], [1.0]), ([[0.5, np.inf]], [1.0]), ([[0.5, 0.5]], [-np.inf])],
        ids=["nan-feature", "inf-feature", "inf-label"],
    )
    def test_non_finite_rejected(self, features, labels):
        with pytest.raises(ValueError, match="finite"):
            Dataset(features, labels)

    def test_with_modified_every_item_is_a_fresh_dataset(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.uniform(-0.5, 0.5, (6, 3)), rng.uniform(-1, 1, 6))
        F, L = rng.uniform(-0.5, 0.5, (6, 3)), rng.uniform(-1, 1, 6)
        d2 = d.with_modified(np.arange(6), F, L)
        ref = Dataset(F, L)
        assert np.array_equal(d2.X, ref.X) and np.array_equal(d2.y, ref.y)
        assert not (d2.X.flags.writeable or d2.y.flags.writeable)
        # the new dataset owns its arrays: the caller may keep changing F, L
        F[0, 0], L[0] = 9.0, 9.0
        assert np.array_equal(d2.X, ref.X) and np.array_equal(d2.y, ref.y)
        F[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            d.with_modified(np.arange(6), F, L)

    def test_gram_is_cached_and_readonly(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.uniform(-0.5, 0.5, (7, 3)), rng.uniform(-1, 1, 7))
        XtX, Xty = d.gram
        assert np.array_equal(XtX, d.X.T @ d.X) and np.array_equal(Xty, d.X.T @ d.y)
        assert d.gram[0] is XtX and d.gram[1] is Xty
        with pytest.raises(ValueError):
            XtX[0, 0] = 9.0
        with pytest.raises(ValueError):
            Xty[0] = 9.0
        # a modified dataset forms its own, from its own rows
        d2 = d.with_modified([2], [[0.1, 0.2, 0.3]], [0.5])
        assert np.array_equal(d2.gram[0], d2.X.T @ d2.X) and np.array_equal(d2.gram[1], d2.X.T @ d2.y)
        assert not (d2.gram[0].flags.writeable or d2.gram[1].flags.writeable)
        assert np.array_equal(d.gram[0], d.X.T @ d.X)

    @pytest.mark.parametrize(
        "indices",
        [[4, 1, 4], [], np.arange(9), slice(None)],
        ids=["repeated", "empty", "all-rows", "slice"],
    )
    def test_modified_gram_counts_each_replaced_row_once(self, indices):
        rng = np.random.default_rng(2)
        d = Dataset(rng.uniform(-0.5, 0.5, (9, 4)), rng.uniform(-1, 1, 9))
        k = len(np.arange(9)[indices])
        d2 = d.with_modified(indices, rng.uniform(-0.5, 0.5, (k, 4)), rng.uniform(-1, 1, k))
        assert np.array_equal(d2.gram[0], d2.X.T @ d2.X)
        assert np.array_equal(d2.gram[1], d2.X.T @ d2.y)

    @pytest.mark.parametrize("indices", [[5, 1], [1, 5, 5], [6, 2, 6, 0]], ids=["unsorted", "repeated", "both"])
    def test_gram_of_repeated_and_unsorted_indices(self, indices):
        # a repeated index replaced its row once, with the last of its values
        rng = np.random.default_rng(7)
        d = Dataset(rng.uniform(-0.5, 0.5, (8, 3)), rng.uniform(-1, 1, 8))
        k = len(indices)
        modified = d.with_modified(indices, rng.uniform(-0.5, 0.5, (k, 3)), rng.uniform(-1, 1, k))
        X, y = modified.X, modified.y
        np.testing.assert_allclose(modified.gram[0], X.T @ X, rtol=0, atol=1e-12)
        np.testing.assert_allclose(modified.gram[1], X.T @ y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("indices", [[-1, 4], [5], [0, -6]])
    def test_index_outside_the_rows_is_refused(self, indices):
        # a negative index aliases another row: [-1, 4] on n = 5 names row 4
        # twice
        rng = np.random.default_rng(11)
        d = Dataset(rng.uniform(-0.5, 0.5, (5, 3)), rng.uniform(-1, 1, 5))
        k = len(indices)
        features, labels = rng.uniform(-0.5, 0.5, (k, 3)), rng.uniform(-1, 1, k)
        with pytest.raises(ValueError, match=r"^item indices must lie in \[0, 5\), got \[-?\d+\]$"):
            d.with_modified(indices, features, labels)
        in_range = np.asarray(indices) % 5
        modified = d.with_modified(in_range, features, labels)
        np.testing.assert_allclose(modified.gram[0], modified.X.T @ modified.X, rtol=0, atol=1e-12)
        np.testing.assert_allclose(modified.gram[1], modified.X.T @ modified.y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "indices, dtype",
        [(np.array([True, False]), "bool"), ([0.7, 3.2], "float64"), (np.array([1.0, 0.0]), "float64")],
        ids=["mask", "fractional", "whole-floats"],
    )
    def test_non_integer_indices_are_refused(self, indices, dtype):
        # a cast would take the mask [True, False] as rows [1, 0] and
        # truncate 0.7 and 3.2 to rows 0 and 3
        d = Dataset([[0.1], [0.2], [0.3], [0.4]], [1.0, 1.0, -1.0, -1.0])
        with pytest.raises(ValueError, match=rf"^item indices must be integers, got dtype {dtype}$"):
            d.with_modified(indices, [[0.8], [0.9]], [-1.0, 1.0])
        assert d.with_modified([], np.zeros((0, 1)), []).X.tolist() == d.X.tolist()
        assert d.with_modified(np.array([1, 0], dtype=np.uint8), [[0.8], [0.9]], [-1.0, 1.0]).X[1, 0] == 0.8

    def test_gram_eigh_is_cached_and_readonly(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.uniform(-0.5, 0.5, (10, 3)), rng.uniform(-1, 1, 10))
        evals, Q = d.gram_eigh
        want_evals, want_Q = np.linalg.eigh(d.gram[0])
        assert np.array_equal(evals, want_evals) and np.array_equal(Q, want_Q)
        assert d.gram_eigh[0] is evals and d.gram_eigh[1] is Q
        assert not (evals.flags.writeable or Q.flags.writeable)

    def test_cached_value_is_computed_once_per_dataset(self):
        d = Dataset([[0.1], [0.2]], [1.0, -1.0])
        calls = []

        def compute():
            calls.append(1)
            return object()

        first = d.cached("key", compute)
        assert d.cached("key", compute) is first and len(calls) == 1
        assert d.cached("other", compute) is not first and len(calls) == 2
        # a modified dataset starts with an empty cache
        d.with_modified([0], [[0.3]], [1.0]).cached("key", compute)
        assert len(calls) == 3

    def test_empty_dataset_is_allowed(self):
        d = Dataset(np.empty((0, 3)), np.empty(0))
        assert d.n == 0 and d.dim == 3


class TestModelParams:
    def test_one_model(self):
        model = ModelParams([0.5, -1.0], np.float64(0.25))
        assert model.dim == 2 and type(model.mu) is float and not model.theta.flags.writeable
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            ModelParams([0.5, -1.0], -1e-300)

    def test_stack_of_models(self):
        stack = ModelParams(np.ones((4, 3)), np.array([0.0, 0.5, 0.0, 2.0]))
        assert stack.dim == 3 and stack.theta.shape == (4, 3)
        assert not (stack.theta.flags.writeable or stack.mu.flags.writeable)
        assert ModelParams(np.ones((4, 3)), 0.5).mu == 0.5  # one mu shared by every row

    def test_stack_rejects_a_negative_mu_row(self):
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            ModelParams(np.ones((3, 2)), np.array([0.0, -0.5, 1.0]))

    @pytest.mark.parametrize(
        "theta, mu",
        [(np.ones((3, 2)), np.zeros(2)), (np.ones(2), np.zeros(1)), (np.ones((2, 3, 2)), 0.0)],
    )
    def test_shapes_that_are_no_model_or_stack(self, theta, mu):
        with pytest.raises(ValueError, match=re.escape("theta must be (d,) or (m, d), and mu one float or (m,)")):
            ModelParams(theta, mu)


class TestVictimSpec:
    def test_ridge_requires_rho(self):
        with pytest.raises(ValueError):
            VictimSpec("objective", "ridge", lam=1.0, epsilon=1.0)

    @pytest.mark.parametrize("mechanism", ["objective", "output"])
    def test_logistic_refuses_rho(self, mechanism):
        # rho bounds only the ridge solve, so a logistic victim would run without it
        with pytest.raises(ValueError, match="^rho is the ridge victim's model-space radius"):
            VictimSpec(mechanism, "logistic", lam=1.0, epsilon=1.0, rho=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.0, epsilon=1.0),
            dict(lam=1.0, epsilon=0.0),
            dict(lam=1.0, epsilon=1.0, delta=1.0),
            dict(lam=1.0, epsilon=1.0, noise_scale=0.0),
            dict(lam=np.nan, epsilon=1.0),
            dict(lam=np.inf, epsilon=1.0),
            dict(lam=1.0, epsilon=np.nan),
            dict(lam=1.0, epsilon=np.inf),
            dict(lam=1.0, epsilon=1.0, rho=np.nan),
            dict(lam=1.0, epsilon=1.0, noise_scale=np.inf),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            VictimSpec("objective", "logistic", **kwargs)

    def test_default_noise_scales(self):
        obj = VictimSpec("objective", "logistic", lam=10.0, epsilon=0.1)
        out = VictimSpec("output", "logistic", lam=10.0, epsilon=0.1)
        assert obj.noise_scale_for(317) == pytest.approx(20.0)
        assert out.noise_scale_for(317) == pytest.approx(2.0 / (317 * 10.0 * 0.1))

    def test_explicit_noise_scale_wins(self):
        v = VictimSpec("objective", "logistic", lam=10.0, epsilon=0.1, noise_scale=0.75)
        assert v.noise_scale_for(5) == 0.75

    @pytest.mark.parametrize(
        "mechanism, lam, epsilon",
        [
            ("objective", 1.0, 1e-309),  # 2/epsilon overflows to inf
            ("output", 1e200, 1e200),  # 2/(n*lam*epsilon) underflows to 0
            ("output", 1e-200, 1e-200),  # n*lam*epsilon underflows to 0
        ],
    )
    def test_unusable_noise_scale_rejected(self, mechanism, lam, epsilon):
        with pytest.raises(ValueError, match="noise scale must be finite and positive"):
            VictimSpec(mechanism, "logistic", lam=lam, epsilon=epsilon)

    def test_noise_scale_underflow_at_large_n_rejected(self):
        v = VictimSpec("output", "logistic", lam=1e154, epsilon=1e154)
        assert v.noise_scale_for(1) == 2e-308
        with pytest.raises(ValueError, match="got 0.0 at n=10$"):
            v.noise_scale_for(10)


class TestCostSpec:
    def test_parameter_targeting_requires_target(self):
        with pytest.raises(ValueError):
            CostSpec(goal=Goal.PARAMETER_TARGETING)

    def test_label_goals_require_nonempty_eval_set(self):
        with pytest.raises(ValueError):
            CostSpec(goal=Goal.LABEL_TARGETING)
        empty = Dataset(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            CostSpec(goal=Goal.LABEL_AVERSION, eval_set=empty)

    def test_sign_mapping(self):
        es = Dataset([[0.5]], [1.0])
        assert CostSpec(goal=Goal.LABEL_TARGETING, eval_set=es).sign is Sign.NON_NEGATIVE
        assert CostSpec(goal=Goal.LABEL_AVERSION, eval_set=es).sign is Sign.NON_POSITIVE
        target = ModelParams(vec(1.0))
        assert CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=target).sign is Sign.NON_NEGATIVE

    def test_bad_loss_and_cbar(self):
        es = Dataset([[0.5]], [1.0])
        with pytest.raises(ValueError):
            CostSpec(goal=Goal.LABEL_TARGETING, eval_set=es, loss="hinge")
        with pytest.raises(ValueError):
            CostSpec(goal=Goal.LABEL_TARGETING, eval_set=es, cbar=0.0)
        with pytest.raises(ValueError, match="^cbar must be finite"):
            CostSpec(goal=Goal.LABEL_TARGETING, eval_set=es, cbar=np.nan)


class TestEvalCost:
    def test_parameter_targeting_at_target_is_zero(self):
        c = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=ModelParams(vec(2.6, 0.0)))
        assert eval_cost(c, ModelParams(vec(2.6, 0.0))) == 0.0

    def test_parameter_targeting_half_squared_distance(self):
        c = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=ModelParams(vec(2.6, 0.0)))
        assert eval_cost(c, ModelParams(vec(0.0, 0.0))) == pytest.approx(3.38)

    def test_label_targeting_logistic_at_zero_model(self):
        rng = np.random.default_rng(0)
        es = Dataset(rng.standard_normal((7, 3)), np.where(rng.random(7) < 0.5, 1.0, -1.0))
        c = CostSpec(goal=Goal.LABEL_TARGETING, eval_set=es)
        assert eval_cost(c, ModelParams(np.zeros(3))) == pytest.approx(np.log(2.0))

    def test_squared_loss_value(self):
        es = Dataset([[1.0, 0.0], [0.0, 1.0]], [0.5, -0.5])
        c = CostSpec(goal=Goal.LABEL_TARGETING, eval_set=es, loss="squared")
        # residuals 0.5 and 1.5 at theta = (1, 1)
        assert eval_cost(c, ModelParams(vec(1.0, 1.0))) == pytest.approx(
            0.5 * (0.5 * 0.25 + 0.5 * 2.25)
        )

    def test_aversion_negates_targeting(self):
        rng = np.random.default_rng(1)
        es = Dataset(rng.standard_normal((5, 2)), np.where(rng.random(5) < 0.5, 1.0, -1.0))
        model = ModelParams(rng.standard_normal(2))
        for loss in ("logistic", "squared"):
            t = eval_cost(CostSpec(goal=Goal.LABEL_TARGETING, eval_set=es, loss=loss), model)
            a = eval_cost(CostSpec(goal=Goal.LABEL_AVERSION, eval_set=es, loss=loss), model)
            assert a == -t

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 2))
        y = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        perm = rng.permutation(6)
        model = ModelParams(rng.standard_normal(2))
        c1 = CostSpec(goal=Goal.LABEL_TARGETING, eval_set=Dataset(X, y))
        c2 = CostSpec(goal=Goal.LABEL_TARGETING, eval_set=Dataset(X[perm], y[perm]))
        assert eval_cost(c1, model) == pytest.approx(eval_cost(c2, model), rel=1e-15)

    def test_dimension_mismatch(self):
        c = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=ModelParams(vec(1.0, 2.0)))
        with pytest.raises(ValueError):
            eval_cost(c, ModelParams(vec(1.0)))


def cost_for(goal, loss, rng, d=3):
    if goal is Goal.PARAMETER_TARGETING:
        return CostSpec(goal=goal, target_model=ModelParams(rng.standard_normal(d)), loss=loss)
    X = rng.uniform(-0.5, 0.5, (40, d))
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0) if loss == "logistic" else rng.uniform(-1, 1, 40)
    return CostSpec(goal=goal, eval_set=Dataset(X, y), loss=loss)


GOALS_AND_LOSSES = [(goal, loss) for goal in Goal for loss in ("logistic", "squared")]


class TestStackedEvalCost:
    @pytest.mark.parametrize("goal, loss", GOALS_AND_LOSSES)
    def test_stack_matches_single_models(self, goal, loss):
        rng = np.random.default_rng(4)
        cost = cost_for(goal, loss, rng)
        thetas = 3.0 * rng.standard_normal((7, 3))
        values = eval_cost(cost, ModelParams(thetas))
        assert isinstance(values, np.ndarray) and values.shape == (7,)
        singles = [eval_cost(cost, ModelParams(theta)) for theta in thetas]
        assert all(isinstance(v, float) for v in singles)
        np.testing.assert_allclose(values, singles, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [1, 2, 7, 32])
    @pytest.mark.parametrize("goal, loss", GOALS_AND_LOSSES)
    def test_stack_is_bit_for_bit_m_single_calls(self, goal, loss, m):
        # Row i of a stack is its own model's value: the same distance, or
        # the same losses averaged in the same order. The label goals take
        # features, labels and thetas in eighths, so every margin is exact:
        # the BLAS kernel for one row (matrix-vector) and for m rows (matrix,
        # whose tail handling depends on m) round general floats apart by
        # an ulp or two, which the test above allows.
        rng = np.random.default_rng(6)
        if goal is Goal.PARAMETER_TARGETING:
            cost, thetas = cost_for(goal, loss, rng), 3.0 * rng.standard_normal((m, 3))
        else:
            X = rng.integers(-4, 5, (40, 3)) / 8.0
            y = rng.choice([-1.0, 1.0], 40) if loss == "logistic" else rng.integers(-8, 9, 40) / 8.0
            cost = CostSpec(goal=goal, eval_set=Dataset(X, y), loss=loss)
            thetas = rng.integers(-24, 25, (m, 3)) / 8.0
        values = eval_cost(cost, ModelParams(thetas))
        np.testing.assert_array_equal(values, [eval_cost(cost, ModelParams(theta)) for theta in thetas])

    @pytest.mark.parametrize("goal, loss", GOALS_AND_LOSSES)
    def test_stack_dimension_mismatch(self, goal, loss):
        cost = cost_for(goal, loss, np.random.default_rng(5))
        with pytest.raises(ValueError, match="dimension mismatch: cost is 3d, model is 2d"):
            eval_cost(cost, ModelParams(np.array([vec(1.0, 2.0), vec(0.5, 0.5)])))


def project(features, label):
    """Project one item through project_rows_inplace; returns (features, label)."""
    X = vec(*features)[None, :]
    y = vec(label)
    project_rows_inplace(X, y)
    return X[0], y[0]


class TestProjection:
    def test_feasible_item_unchanged(self):
        X = np.array([[0.3, 0.4], [0.6, 0.8]])
        y = vec(0.5, -1.0)
        before = X.copy(), y.copy()
        project_rows_inplace(X, y)
        np.testing.assert_array_equal(X, before[0])
        np.testing.assert_array_equal(y, before[1])

    def test_radial_rescale(self):
        f, label = project((3.0, 4.0), 0.5)
        np.testing.assert_allclose(f, [0.6, 0.8])
        assert label == 0.5

    def test_label_clamp(self):
        f, label = project((0.1,), 1.7)
        assert label == 1.0
        np.testing.assert_array_equal(f, [0.1])

    @given(
        st.lists(finite_floats, min_size=1, max_size=4),
        finite_floats,
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_feasible(self, features, label):
        once = project(features, label)
        twice = project(once[0], once[1])
        assert np.linalg.norm(once[0]) <= 1.0 + 1e-12
        assert -1.0 <= once[1] <= 1.0
        np.testing.assert_array_equal(twice[0], once[0])
        assert twice[1] == once[1]


def distance(xa, ya, xb, yb):
    """modification_distances of a single pair of items."""
    return modification_distances(vec(*xa)[None, :], vec(ya), vec(*xb)[None, :], vec(yb))[0]


class TestModificationDistance:
    def test_identical_items(self):
        assert distance((0.1, 0.2), 1.0, (0.1, 0.2), 1.0) == 0.0
        assert distance((0.1, 0.2), -0.3, (0.1, 0.2), -0.3) == 0.0

    def test_label_displacement_always_counts(self):
        # a moved label adds 0.5 * dy^2 = 2.0 to the 0.5 * ||dx||^2 = 0.5
        # of the features
        assert distance((0.6, 0.8), 1.0, (0.0, 0.0), -1.0) == pytest.approx(2.5)
        assert distance((0.0, 0.0), 1.0, (0.0, 0.0), -1.0) == pytest.approx(2.0)

    def test_ridge_includes_label(self):
        assert distance((1.0, 0.0), 1.0, (0.0, 0.0), 0.0) == pytest.approx(1.0)

    @given(
        st.lists(finite_floats, min_size=2, max_size=2),
        st.lists(finite_floats, min_size=2, max_size=2),
        finite_floats,
        finite_floats,
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_in_the_difference(self, xa, xb, ya, yb):
        ab = distance(xa, ya, xb, yb)
        assert ab == distance(xb, yb, xa, ya)
        assert ab >= 0.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        Xp, Xc = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
        yp, yc = rng.standard_normal(8), rng.standard_normal(8)
        batch = modification_distances(Xp, yp, Xc, yc)
        for i in range(8):
            # per-row reference: half the squared displacement of features
            # and label
            dx = Xp[i] - Xc[i]
            one = 0.5 * float(dx @ dx) + 0.5 * (yp[i] - yc[i]) ** 2
            assert batch[i] == pytest.approx(one, rel=1e-15)


class TestScalarHelpers:
    def test_sigmoid_extremes(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(0.0) == 0.5

    def test_softplus_extremes(self):
        assert softplus(-1000.0) == 0.0
        assert softplus(1000.0) == pytest.approx(1000.0)
        assert softplus(0.0) == pytest.approx(np.log(2.0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-800.0, max_value=800.0)
            | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
            min_size=1,
            max_size=20,
        )
    )
    def test_softplus_matches_logaddexp(self, ts):
        t = np.array(ts)
        got = softplus(t)
        with np.errstate(invalid="ignore"):  # logaddexp warns on nan
            want = np.logaddexp(0.0, t)
        assert got.shape == t.shape
        assert np.array_equal(np.isnan(got), np.isnan(t))
        assert np.all(got[t == np.inf] == np.inf) and np.all(got[t == -np.inf] == 0.0)
        finite = np.isfinite(t)
        assert np.all(np.abs(got[finite] - want[finite]) <= 4 * np.spacing(want[finite]))
