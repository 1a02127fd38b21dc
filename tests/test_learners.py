"""Solvers, noise sampling, and mechanism dispatch against independent oracles."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_classification_data, random_regression_data
from dppoison import (
    Dataset,
    ModelParams,
    SolverError,
    VictimSpec,
    sigmoid,
    train_base_logistic,
    train_base_ridge_constrained,
    train_mechanism,
)
from dppoison import learners
from dppoison.learners import sample_noise


def logistic_gradient(data, lam, b, theta):
    t = data.y * (data.X @ theta)
    return lam * theta - data.X.T @ (data.y * sigmoid(-t)) + b


def logistic_kkt_residual(data, lam, b, theta):
    return np.linalg.norm(logistic_gradient(data, lam, b, theta))


class TestSampleNoise:
    def test_zero_scale_degenerates(self):
        b = sample_noise(3, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(b, np.zeros(3))

    def test_mean_norm_is_dim_times_scale(self):
        rng = np.random.default_rng(1)
        norms = [np.linalg.norm(sample_noise(2, 1.0, rng)) for _ in range(100_000)]
        assert np.mean(norms) == pytest.approx(2.0, abs=0.02)

    def test_direction_uniform_on_circle(self):
        rng = np.random.default_rng(2)
        draws = np.array([sample_noise(2, 1.0, rng) for _ in range(100_000)])
        for sx in (1, -1):
            for sy in (1, -1):
                frac = np.mean((sx * draws[:, 0] > 0) & (sy * draws[:, 1] > 0))
                assert frac == pytest.approx(0.25, abs=0.01)

    def test_deterministic_given_stream(self):
        a = sample_noise(4, 2.0, np.random.default_rng(7))
        b = sample_noise(4, 2.0, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_noise(0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_noise(2, -1.0, rng)

    @pytest.mark.parametrize("scale", [-1.0, np.nan, np.inf])
    def test_scale_must_be_finite_and_nonnegative(self, scale):
        # nan fails every comparison, so a "scale < 0" test would let it through
        with pytest.raises(ValueError, match=r"^scale must be finite and nonnegative, got "):
            sample_noise(2, scale, np.random.default_rng(0))

    def test_zero_direction_is_drawn_again(self):
        # an all-zero normal draw has no direction; the sampler draws again
        class Stub:
            normals = [np.zeros(3), np.array([0.0, 3.0, 4.0])]

            def gamma(self, shape, scale):
                return 5.0

            def standard_normal(self, dim):
                return self.normals.pop(0)

        stub = Stub()
        np.testing.assert_array_equal(sample_noise(3, 1.0, stub), [0.0, 3.0, 4.0])
        assert stub.normals == []


# a regularizer or radius that is no finite positive number, and how it is refused
NOT_FINITE_POSITIVE = [
    (np.nan, "finite, got nan"),
    (np.inf, "finite, got inf"),
    (-1.0, "positive, got -1.0"),
    (0.0, "positive, got 0.0"),
    (None, "a number, got None"),
    (True, "a number, got True"),
]


# what a failed logistic Newton says
STALLED = "logistic solver stalled: no descent step found"
NOT_CONVERGED = "logistic solver did not converge within 1 iterations"


class TestLogisticSolver:
    def test_symmetric_data_gives_zero_model(self):
        X = np.array([[0.3, -0.1], [0.7, 0.2], [0.3, -0.1], [0.7, 0.2]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = train_base_logistic(Dataset(X, y), lam=2.0)
        assert np.linalg.norm(model.theta) <= 1e-9
        assert model.mu == 0.0

    def test_kkt_residual_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            data = random_classification_data(rng)
            lam = float(rng.uniform(0.5, 5.0))
            b = rng.standard_normal(data.dim)
            model = train_base_logistic(data, lam, b)
            assert logistic_kkt_residual(data, lam, b, model.theta) <= 1e-8

    def test_zero_noise_matches_base(self):
        # b=None is the base learner, the same solve as an all-zero draw
        rng = np.random.default_rng(4)
        data = random_classification_data(rng, n=12, d=3)
        a = train_base_logistic(data, lam=1.5)
        b = train_base_logistic(data, 1.5, np.zeros(3))
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_scalar_case_matches_bisection(self, monkeypatch):
        # n=1, d=1: stationarity is lam*t - y*x*sigmoid(-y*t*x) + b = 0,
        # strictly increasing in t, so bisection is an exact oracle.
        monkeypatch.setattr(learners, "GRAD_TOL", 1e-12)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = float(rng.uniform(-1.0, 1.0))
            y = float(rng.choice([-1.0, 1.0]))
            lam = float(rng.uniform(0.3, 4.0))
            b = float(rng.normal(scale=2.0))
            data = Dataset([[x]], [y])

            def g(t):
                return lam * t - y * x * sigmoid(-y * t * x) + b

            lo, hi = -100.0, 100.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if g(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            oracle = 0.5 * (lo + hi)
            model = train_base_logistic(data, lam, np.array([b]))
            assert model.theta[0] == pytest.approx(oracle, abs=1e-8)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            train_base_logistic(Dataset([[0.5]], [0.0]), lam=1.0)

    @pytest.mark.parametrize("value, complaint", NOT_FINITE_POSITIVE)
    def test_lam_that_is_no_finite_positive_number(self, value, complaint):
        data = Dataset([[0.5, 0.1], [0.2, -0.3]], [1.0, -1.0])
        with pytest.raises(ValueError, match=f"^lam must be {re.escape(complaint)}$"):
            train_base_logistic(data, value)

    def test_noise_dimension_checked(self):
        data = Dataset([[0.5, 0.1]], [1.0])
        with pytest.raises(ValueError):
            train_base_logistic(data, 1.0, np.zeros(3))

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(learners, "MAX_ITERS", 1)
        rng = np.random.default_rng(6)
        data = random_classification_data(rng, n=10, d=2)
        with pytest.raises(SolverError, match=f"^{NOT_CONVERGED}$") as raised:
            train_base_logistic(data, lam=1.0)
        assert raised.value.rows is None

    def test_stacked_nonconvergence_raises(self, monkeypatch):
        # a warm start skips the scalar noiseless solve, so the batched
        # Newton itself runs out of iterations and names every row
        monkeypatch.setattr(learners, "MAX_ITERS", 1)
        rng = np.random.default_rng(6)
        data = random_classification_data(rng, n=10, d=2)
        victim = VictimSpec("objective", "logistic", lam=1.0, epsilon=1.0)
        with pytest.raises(SolverError, match=f"^{NOT_CONVERGED}$") as raised:
            train_mechanism(victim, data, rng.standard_normal((4, 2)), warm_start=ModelParams(np.zeros(2)))
        assert list(raised.value.rows) == [0, 1, 2, 3]

    def test_stacked_non_finite_row_raises(self):
        # a nan draw leaves its row's gradient nan; the batched Newton must
        # fail on it as the scalar solver does, not return the start point
        rng = np.random.default_rng(6)
        data = random_classification_data(rng, n=10, d=2)
        victim = VictimSpec("objective", "logistic", lam=1.0, epsilon=1.0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(SolverError, match=f"^{STALLED}$") as raised:
                train_mechanism(victim, data, np.array([np.nan, 0.1]))
            assert raised.value.rows is None
            with pytest.raises(SolverError, match=f"^{STALLED}$") as raised:
                train_mechanism(victim, data, np.array([[np.nan, 0.1], [0.1, 0.2]]))
            assert list(raised.value.rows) == [0]

    def test_warm_start_agrees_with_cold(self, monkeypatch):
        monkeypatch.setattr(learners, "GRAD_TOL", 1e-12)
        rng = np.random.default_rng(7)
        data = random_classification_data(rng, n=15, d=3)
        cold = train_base_logistic(data, lam=1.0)
        far = ModelParams(np.full(3, 5.0))
        warm = train_base_logistic(data, lam=1.0, warm_start=far)
        assert np.linalg.norm(cold.theta - warm.theta) <= 1e-8

    def test_far_start_whose_newton_step_raises_the_gradient_is_backtracked(self, monkeypatch):
        # from this start the full Newton step raises ||g||, so the line
        # search must shorten it; both solvers still land on the cold solution
        monkeypatch.setattr(learners, "GRAD_TOL", 1e-12)
        rng = np.random.default_rng(7)
        data = random_classification_data(rng, n=15, d=3)
        X, y, lam, b = data.X, data.y, 0.3, np.zeros(3)
        start = np.array([5.0, -5.0, 5.0])
        p = sigmoid(-y * (X @ start))
        hessian = lam * np.eye(3) + X.T @ (X * (p * (1.0 - p))[:, None])
        full_step = start - np.linalg.solve(hessian, logistic_gradient(data, lam, b, start))
        assert logistic_kkt_residual(data, lam, b, full_step) > logistic_kkt_residual(data, lam, b, start)
        cold = train_base_logistic(data, lam).theta
        scale = max(1.0, float(np.max(np.abs(cold))))
        single = learners._solve_logistic(X, y, lam, b, start)
        rows = learners._solve_logistic_rows(X, y, lam, b[None, :], start)
        for warm in (single, rows[0]):
            assert np.max(np.abs(warm - cold)) <= 1e-12 * scale

    def test_noiseless_start_is_solved_once_per_dataset_and_lam(self, monkeypatch):
        # the noiseless solve from zero (the one solve without a start) runs
        # once per (dataset, lam); warm-started calls never run it
        rng = np.random.default_rng(8)
        data = random_classification_data(rng, n=12, d=3)
        solver = learners._solve_logistic
        cold = []

        def counted(X, y, lam, b, warm_start=None):
            cold.append(warm_start is None)
            return solver(X, y, lam, b, warm_start)

        monkeypatch.setattr(learners, "_solve_logistic", counted)
        B = rng.standard_normal((5, 3))
        train_base_logistic(data, 1.0, B)
        train_base_logistic(data, 1.0, B[0])
        train_base_logistic(data, 1.0)
        assert sum(cold) == 1
        train_base_logistic(data, 2.0, B)
        assert sum(cold) == 2
        train_base_logistic(Dataset(data.X, data.y), 1.0, B)
        assert sum(cold) == 3
        train_base_logistic(Dataset(data.X, data.y), 1.0, B[0], warm_start=ModelParams(np.ones(3)))
        train_base_logistic(Dataset(data.X, data.y), 1.0, B, warm_start=ModelParams(np.ones(3)))
        assert sum(cold) == 3

    def test_noiseless_cold_solve_is_the_solve_from_zero(self):
        # a cold solve starts at theta0 - H0^-1 b, which is theta0 itself
        # when b = 0, so it returns theta0 bit for bit, alone or in a stack
        rng = np.random.default_rng(9)
        data = random_classification_data(rng, n=20, d=4)
        theta0 = learners._solve_logistic(data.X, data.y, 0.7, np.zeros(4))
        assert np.array_equal(train_base_logistic(data, 0.7).theta, theta0)
        assert np.array_equal(train_base_logistic(data, 0.7, np.zeros(4)).theta, theta0)
        stack = train_base_logistic(data, 0.7, np.zeros((3, 4))).theta
        assert all(np.array_equal(row, theta0) for row in stack)

    def test_clean_2d_experiment_fit(self):
        # disk data labeled by theta* = (1, 1) at lam = 10 fits a model
        # aligned with theta*; magnitude depends on the dataset draw
        from dppoison.harness import gen_2d_dataset
        from dppoison.rng import STAGE_DATA, substream

        data = gen_2d_dataset(317, (1.0, 1.0), substream(1, STAGE_DATA))
        theta = train_base_logistic(data, lam=10.0).theta
        direction = theta / np.linalg.norm(theta)
        assert direction @ np.array([1.0, 1.0]) / np.sqrt(2.0) > 0.97
        assert 1.0 < np.linalg.norm(theta) < 4.0


def ridge_objective(data, lam, b, theta):
    r = data.X @ theta - data.y
    return 0.5 * float(r @ r) + 0.5 * lam * float(theta @ theta) + float(b @ theta)


def ridge_pgd_oracle(data, lam, rho, b, iters=4000):
    X, d = data.X, data.dim
    L = float(np.linalg.eigvalsh(X.T @ X)[-1]) + lam
    step = 1.0 / L
    theta = np.zeros(d)
    for _ in range(iters):
        grad = X.T @ (X @ theta - data.y) + lam * theta + b
        theta = theta - step * grad
        nrm = np.linalg.norm(theta)
        if nrm > rho:
            theta *= rho / nrm
    return theta


class TestRidgeSolver:
    def test_zero_data_gives_zero(self):
        data = Dataset(np.random.default_rng(0).standard_normal((5, 3)), np.zeros(5))
        model = train_base_ridge_constrained(data, lam=1.0, rho=1.0)
        np.testing.assert_array_equal(model.theta, np.zeros(3))
        assert model.mu == 0.0

    def test_feasible_case_matches_direct_solve(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            data = random_regression_data(rng)
            lam = float(rng.uniform(0.5, 4.0))
            b = rng.normal(scale=0.2, size=data.dim)
            direct = np.linalg.solve(
                data.X.T @ data.X + lam * np.eye(data.dim), data.X.T @ data.y - b
            )
            rho = float(np.linalg.norm(direct)) * 2.0 + 0.1
            model = train_base_ridge_constrained(data, lam, rho, b)
            assert model.mu == 0.0
            np.testing.assert_allclose(model.theta, direct, atol=1e-10)

    def test_active_constraint_lands_on_sphere(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            data = random_regression_data(rng, n=12)
            lam = float(rng.uniform(0.5, 2.0))
            unconstrained = np.linalg.solve(
                data.X.T @ data.X + lam * np.eye(data.dim), data.X.T @ data.y
            )
            rho = 0.3 * float(np.linalg.norm(unconstrained)) + 1e-3
            model = train_base_ridge_constrained(data, lam, rho)
            assert model.mu > 0.0
            assert abs(np.linalg.norm(model.theta) - rho) <= 1e-8
            assert abs(model.mu * (model.theta @ model.theta - rho**2)) <= 1e-8

    def test_infinite_draw_cannot_bracket_the_dual(self):
        data = Dataset([[0.5], [-0.3]], [0.2, -0.1])
        with pytest.raises(SolverError, match="^could not bracket the constraint dual$") as raised:
            train_base_ridge_constrained(data, 1.0, 1.0, np.array([np.inf]))
        assert raised.value.rows is None

    def test_dual_short_of_its_tolerance_raises(self, monkeypatch):
        # no step is within a negative tolerance, so Newton runs out of steps
        monkeypatch.setattr(learners, "DUAL_TOL", -1.0)
        data = Dataset([[0.5], [-0.3]], [0.2, -0.1])
        with pytest.raises(SolverError, match="^the constraint dual did not converge$"):
            train_base_ridge_constrained(data, 1.0, 0.01)

    def test_active_constraint_matches_pgd_objective(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            data = random_regression_data(rng, n=10, d=3)
            lam = float(rng.uniform(0.5, 2.0))
            b = rng.normal(scale=0.3, size=3)
            rho = float(rng.uniform(0.05, 0.3))
            model = train_base_ridge_constrained(data, lam, rho, b)
            oracle = ridge_pgd_oracle(data, lam, rho, b)
            f_model = ridge_objective(data, lam, b, model.theta)
            f_oracle = ridge_objective(data, lam, b, oracle)
            assert f_model <= f_oracle + 1e-9
            assert abs(f_model - f_oracle) <= 1e-6

    def test_norm_decreases_in_mu(self):
        rng = np.random.default_rng(11)
        data = random_regression_data(rng, n=10, d=3)
        lam = 1.0
        A = data.X.T @ data.X
        rhs = data.X.T @ data.y
        norms = [
            np.linalg.norm(np.linalg.solve(A + (lam + mu) * np.eye(3), rhs))
            for mu in np.linspace(0.0, 20.0, 50)
        ]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_invalid_parameters(self):
        data = Dataset([[0.5]], [0.2])
        with pytest.raises(ValueError):
            train_base_ridge_constrained(data, lam=0.0, rho=1.0)
        with pytest.raises(ValueError):
            train_base_ridge_constrained(data, lam=1.0, rho=0.0)
        for b in (np.zeros(2), np.zeros((3, 2)), np.zeros((2, 2, 1))):
            with pytest.raises(ValueError):
                train_base_ridge_constrained(data, 1.0, 1.0, b)

    @pytest.mark.parametrize("name", ["lam", "rho"])
    @pytest.mark.parametrize("value, complaint", NOT_FINITE_POSITIVE)
    def test_parameter_that_is_no_finite_positive_number(self, name, value, complaint):
        # lam=nan gave theta = [nan, nan] and rho=nan an unconstrained
        # solve, both silently; rho=None raised a bare TypeError
        data = Dataset([[0.5, 0.1], [0.2, -0.3]], [0.2, -0.4])
        params = {"lam": 1.0, "rho": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be {re.escape(complaint)}$"):
            train_base_ridge_constrained(data, **params)

    def test_stack_decomposes_once(self, monkeypatch):
        # rows whose constraint is active share one eigendecomposition
        rng = np.random.default_rng(16)
        data = random_regression_data(rng, n=12, d=3)
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(1)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        victim = VictimSpec("objective", "ridge", lam=1.0, epsilon=1.0, rho=0.05)
        stack = train_mechanism(victim, data, rng.standard_normal((6, 3)))
        assert stack.mu.shape == (6,) and np.all(stack.mu > 0.0)
        assert len(calls) == 1
        train_base_ridge_constrained(data, 1.0, 100.0, rng.standard_normal((6, 3)) * 1e-3)
        assert len(calls) == 1


class TestTrainMechanism:
    def test_output_perturbation_is_base_plus_noise(self):
        rng = np.random.default_rng(12)
        data = random_classification_data(rng, n=10, d=3)
        victim = VictimSpec("output", "logistic", lam=1.0, epsilon=1.0)
        b = rng.standard_normal(3)
        base = train_base_logistic(data, lam=1.0)
        out = train_mechanism(victim, data, b)
        np.testing.assert_array_equal(out.theta, base.theta + b)

    def test_zero_noise_reduces_to_base_both_mechanisms(self):
        rng = np.random.default_rng(13)
        data = random_regression_data(rng, n=10, d=3)
        base = train_base_ridge_constrained(data, lam=1.0, rho=0.5)
        for mech in ("objective", "output"):
            victim = VictimSpec(mech, "ridge", lam=1.0, epsilon=1.0, rho=0.5)
            got = train_mechanism(victim, data, np.zeros(3))
            np.testing.assert_array_equal(got.theta, base.theta)
            assert got.mu == base.mu

    def test_output_ridge_constraint_applies_to_shifted_model(self):
        rng = np.random.default_rng(14)
        data = random_regression_data(rng, n=10, d=3)
        victim = VictimSpec("output", "ridge", lam=1.0, epsilon=1.0, rho=0.1)
        b = rng.standard_normal(3) * 3.0
        model = train_mechanism(victim, data, b)
        assert np.linalg.norm(model.theta - b) <= 0.1 + 1e-8

    @pytest.mark.parametrize("base", ["logistic", "ridge"])
    def test_output_base_solve_is_cached_per_dataset(self, monkeypatch, base):
        # cold calls on one dataset share one base solve, bit for bit the
        # uncached one; a warm-started call solves from its own start. The
        # victim's fields were checked when it was built, so train_mechanism
        # calls the trainers' unchecked solvers
        rng = np.random.default_rng(16)
        make_data = random_classification_data if base == "logistic" else random_regression_data
        data = make_data(rng, n=12, d=3)
        victim = VictimSpec("output", base, lam=1.0, epsilon=1.0, rho=0.3 if base == "ridge" else None)
        name = "_logistic" if base == "logistic" else "_ridge"
        solver = getattr(learners, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solver(*args, **kwargs)

        monkeypatch.setattr(learners, name, counted)
        b = rng.standard_normal((4, 3))
        stacked = train_mechanism(victim, data, b)
        single = train_mechanism(victim, data, b[0])
        assert len(calls) == 1
        fresh = train_mechanism(victim, Dataset(data.X, data.y), b[0])
        assert len(calls) == 2
        assert np.array_equal(stacked.theta[0], fresh.theta) and stacked.mu == fresh.mu
        assert np.array_equal(single.theta, fresh.theta)
        train_mechanism(victim, data, b[0], warm_start=ModelParams(np.ones(3)))
        assert len(calls) == 3

    def test_objective_logistic_reproducible(self):
        rng = np.random.default_rng(15)
        data = random_classification_data(rng, n=10, d=2)
        victim = VictimSpec("objective", "logistic", lam=1.0, epsilon=1.0)
        b = sample_noise(2, victim.noise_scale_for(data.n), np.random.default_rng(99))
        a = train_mechanism(victim, data, b)
        c = train_mechanism(victim, data, b)
        np.testing.assert_array_equal(a.theta, c.theta)


@pytest.mark.parametrize(
    "mechanism, base",
    [("objective", "logistic"), ("output", "logistic"), ("output", "ridge"), ("objective", "ridge")],
)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), warm=st.booleans())
def test_stacked_rows_match_single_draws(mechanism, base, seed, m, warm):
    # row i of a stacked solve is the single-draw solve of b[i]: bit for
    # bit where the stack runs the single-draw arithmetic row by row, and
    # to rounding for the batched logistic Newton, whose reductions group
    # differently
    rng = np.random.default_rng(seed)
    make_data = random_classification_data if base == "logistic" else random_regression_data
    data = make_data(rng)
    lam = float(rng.uniform(0.5, 4.0))
    victim = VictimSpec(mechanism, base, lam=lam, epsilon=1.0, rho=0.5 if base == "ridge" else None)
    b = rng.standard_normal((m, data.dim)) * rng.uniform(0.1, 3.0)
    start = ModelParams(rng.standard_normal(data.dim)) if warm else None
    stacked = train_mechanism(victim, data, b, warm_start=start)
    assert stacked.theta.shape == (m, data.dim)
    # one mu per row for a ridge objective stack, else one for every row
    assert np.shape(stacked.mu) == ((m,) if (mechanism, base) == ("objective", "ridge") else ())
    for row, theta, mu in zip(b, stacked.theta, np.broadcast_to(stacked.mu, m)):
        single = train_mechanism(victim, data, row, warm_start=start)
        if (mechanism, base) != ("objective", "logistic"):
            assert np.array_equal(theta, single.theta)
            assert mu == single.mu
            continue
        scale = max(1.0, float(np.max(np.abs(single.theta))))
        assert np.max(np.abs(theta - single.theta)) <= 1e-12 * scale
        assert mu == single.mu == 0.0


def near_separable_data(rng, n, d, flips):
    """Items in the unit ball labelled by a random hyperplane, with `flips`
    labels then flipped: separable or nearly so, the case in which a
    weakly regularized logistic model grows long."""
    X = rng.standard_normal((n, d))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    y = np.where(X @ rng.standard_normal(d) >= 0.0, 1.0, -1.0)
    y[rng.choice(n, size=min(flips, n), replace=False)] *= -1.0
    return Dataset(X, y)


kkt_instances = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    d=st.integers(1, 4),
    flips=st.integers(0, 2),
    log_lam=st.floats(-4.0, 4.0),
    log_scale=st.floats(-3.0, 2.0),
    m=st.integers(2, 6),
)


@settings(max_examples=100, deadline=None)
@given(**kkt_instances)
def test_logistic_kkt_property(seed, n, d, flips, log_lam, log_scale, m):
    # Every solve either raises SolverError or returns a point whose
    # stationarity residual is at most GRAD_TOL. The residual is computed
    # with the solver's own expressions (the scalar one for a single draw,
    # the batched one on the whole stack), so it is the number the solver
    # tested and the bound is GRAD_TOL itself, with no slack.
    rng = np.random.default_rng(seed)
    data = near_separable_data(rng, n, d, flips)
    lam = 10.0**log_lam
    b = rng.standard_normal(d) * 10.0**log_scale
    B = rng.standard_normal((m, d)) * 10.0**log_scale
    tol = learners.GRAD_TOL
    X, y = data.X, data.y
    try:
        theta = train_base_logistic(data, lam, b).theta
        assert logistic_kkt_residual(data, lam, b, theta) <= tol
    except SolverError:
        pass
    try:
        thetas = train_base_logistic(data, lam, B).theta
        p = sigmoid(-(thetas @ X.T) * y)
        residuals = np.linalg.norm(lam * thetas - (p * y) @ X + B, axis=1)
        assert residuals.max() <= tol
    except SolverError:
        pass


@settings(max_examples=100, deadline=None)
@given(log_rho=st.floats(-2.0, 1.0), **kkt_instances)
def test_ridge_kkt_property(seed, n, d, flips, log_lam, log_scale, m, log_rho):
    rng = np.random.default_rng(seed)
    data = near_separable_data(rng, n, d, flips)
    lam, rho = 10.0**log_lam, 10.0**log_rho
    draws = rng.standard_normal((m, d)) * 10.0**log_scale
    dual_tol = learners.DUAL_TOL
    A, Xty = data.X.T @ data.X, data.X.T @ data.y
    single = train_base_ridge_constrained(data, lam, rho, draws[0])
    stack = train_base_ridge_constrained(data, lam, rho, draws)
    for b, theta, mu in zip([draws[0], *draws], [single.theta, *stack.theta], [single.mu, *stack.mu]):
        # (X'X + (lam+mu)I) theta = X'y - b. Both the direct solve and the
        # eigenbasis solve are backward stable for this d x d SPD system, so
        # the residual is a small multiple of d * eps against the sizes of
        # the two sides (at most 1.04 d * eps in a 1,000-instance sweep);
        # 16 d * eps leaves room for the rounding of X'X itself
        H = A + (lam + mu) * np.eye(d)
        rhs = Xty - b
        scale = np.linalg.norm(H, 2) * np.linalg.norm(theta) + np.linalg.norm(rhs)
        assert np.linalg.norm(H @ theta - rhs) <= 16 * d * np.finfo(float).eps * scale
        norm = float(np.linalg.norm(theta))
        if mu == 0.0:
            # the unconstrained solution is kept only when it is feasible
            assert norm <= rho
            continue
        # Bisection stops once its bracket of the true dual is at most
        # dual_tol * max(1, mu) wide, and mu is the bracket's midpoint.
        # ||theta(mu)|| has slope at most ||theta|| / (lam + mu) in mu, so
        # the norm misses rho by at most rho * dual_tol * max(1, mu) /
        # (2 (lam + mu)); the factor 2 is kept as room for rounding.
        slack = dual_tol * max(1.0, mu) / (lam + mu) + 1e-14
        assert abs(norm - rho) <= rho * slack


def ridge_dual_reference(evals, c, lam, rho):
    """The constraint dual by bisection on mu -> ||z(mu)||, z(mu) = c /
    (evals + lam + mu), to a bracket DUAL_TOL * max(1, hi) wide: the
    iteration learners._ridge_dual replaced by Newton steps."""

    def norm_at(mu):
        return float(np.linalg.norm(c / (evals + lam + mu)))

    lo, hi = 0.0, max(1.0, lam)
    while norm_at(hi) > rho:
        hi *= 2.0
    while hi - lo > learners.DUAL_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > rho:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=100, deadline=None)
@given(shrink=st.floats(1e-3, 0.999), **{k: v for k, v in kkt_instances.items() if k != "m"})
def test_ridge_dual_matches_norm_reference(seed, n, d, flips, log_lam, log_scale, shrink):
    # Newton's dual is the bisection's: each stops within DUAL_TOL * max(1,
    # mu) of the root (1e-12), so 1e-10 of that scale leaves room for both.
    # rho is a fraction of the unconstrained norm, so the constraint is active
    rng = np.random.default_rng(seed)
    data = near_separable_data(rng, n, d, flips)
    lam = 10.0**log_lam
    evals, Q = np.linalg.eigh(data.X.T @ data.X)
    c = Q.T @ (data.X.T @ data.y - rng.standard_normal(d) * 10.0**log_scale)
    rho = shrink * float(np.linalg.norm(c / (evals + lam)))
    assume(rho > 0.0)
    mu, ref = learners._ridge_dual(evals, c, lam, rho), ridge_dual_reference(evals, c, lam, rho)
    assert mu > 0.0 and abs(mu - ref) <= 1e-10 * max(1.0, ref)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 8),
    n=st.integers(2, 25),
    d=st.integers(1, 4),
    warm=st.booleans(),
    nan_row=st.one_of(st.none(), st.integers(0, 7)),
)
def test_per_row_data_rows_match_scalar_solves(seed, m, n, d, warm, nan_row):
    # row i of a batched solve with per-row data is the scalar solve of
    # its own data, noise and warm start, to rounding; a nan draw stalls
    # its row, and the SolverError names that row
    rng = np.random.default_rng(seed)
    datas = [random_classification_data(rng, n=n, d=d) for _ in range(m)]
    lam = float(rng.uniform(0.5, 4.0))
    B = rng.standard_normal((m, d)) * rng.uniform(0.1, 3.0)
    starts = rng.standard_normal((m, d)) if warm else [None] * m
    X, y = np.stack([ds.X for ds in datas]), np.stack([ds.y for ds in datas])
    if nan_row is not None:
        B[nan_row % m, 0] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(SolverError, match="stalled") as raised:
                learners._solve_logistic_rows(X, y, lam, B, starts if warm else None)
        assert list(raised.value.rows) == [nan_row % m]
        return
    thetas = learners._solve_logistic_rows(X, y, lam, B, starts if warm else None)
    for ds, b, start, theta in zip(datas, B, starts, thetas):
        single = learners._solve_logistic(ds.X, ds.y, lam, b, start)
        scale = max(1.0, float(np.max(np.abs(single))))
        assert np.max(np.abs(theta - single)) <= 1e-12 * scale
