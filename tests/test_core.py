"""Domain types, cost evaluation, projection, and modification distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppoison import (
    BaseLearner,
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

    def test_with_modified_leaves_original_untouched(self):
        d = Dataset([[0.1], [0.2], [0.3]], [1.0, 1.0, -1.0])
        d2 = d.with_modified([1], vec(0.9)[None, :], vec(-1.0))
        assert d.X[1, 0] == 0.2 and d.y[1] == 1.0
        assert d2.X[1, 0] == 0.9 and d2.y[1] == -1.0
        # untouched rows identical, indices stable
        np.testing.assert_array_equal(d2.X[[0, 2]], d.X[[0, 2]])

    @pytest.mark.parametrize(
        "features, labels",
        [([[np.nan, 5.0]], [1.0]), ([[0.5, np.inf]], [1.0]), ([[0.5, 0.5]], [-np.inf])],
        ids=["nan-feature", "inf-feature", "inf-label"],
    )
    def test_non_finite_rejected(self, features, labels):
        with pytest.raises(ValueError, match="finite"):
            Dataset(features, labels)

    def test_empty_dataset_is_allowed(self):
        d = Dataset(np.empty((0, 3)), np.empty(0))
        assert d.n == 0 and d.dim == 3


class TestVictimSpec:
    def test_ridge_requires_rho(self):
        with pytest.raises(ValueError):
            VictimSpec("objective", "ridge", lam=1.0, epsilon=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.0, epsilon=1.0),
            dict(lam=1.0, epsilon=0.0),
            dict(lam=1.0, epsilon=1.0, delta=1.0),
            dict(lam=1.0, epsilon=1.0, noise_scale=0.0),
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


def distance(xa, ya, xb, yb, base):
    """modification_distances of a single pair of items."""
    return modification_distances(vec(*xa)[None, :], vec(ya), vec(*xb)[None, :], vec(yb), base)[0]


class TestModificationDistance:
    def test_identical_items(self):
        assert distance((0.1, 0.2), 1.0, (0.1, 0.2), 1.0, BaseLearner.LOGISTIC) == 0.0
        assert distance((0.1, 0.2), 1.0, (0.1, 0.2), 1.0, BaseLearner.RIDGE) == 0.0

    def test_logistic_ignores_label(self):
        assert distance((0.6, 0.8), 1.0, (0.0, 0.0), -1.0, "logistic") == pytest.approx(0.5)

    def test_ridge_includes_label(self):
        assert distance((1.0, 0.0), 1.0, (0.0, 0.0), 0.0, "ridge") == pytest.approx(1.0)

    @given(
        st.lists(finite_floats, min_size=2, max_size=2),
        st.lists(finite_floats, min_size=2, max_size=2),
        finite_floats,
        finite_floats,
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_in_the_difference(self, xa, xb, ya, yb):
        for base in BaseLearner:
            ab = distance(xa, ya, xb, yb, base)
            assert ab == distance(xb, yb, xa, ya, base)
            assert ab >= 0.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        Xp, Xc = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
        yp, yc = rng.standard_normal(8), rng.standard_normal(8)
        for base in BaseLearner:
            batch = modification_distances(Xp, yp, Xc, yc, base)
            for i in range(8):
                # per-row reference: half the squared displacement, label
                # included for ridge only
                dx = Xp[i] - Xc[i]
                one = 0.5 * float(dx @ dx)
                if base is BaseLearner.RIDGE:
                    one += 0.5 * (yp[i] - yc[i]) ** 2
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
