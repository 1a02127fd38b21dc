"""Implicit item gradients against hand oracles and finite differences."""

import numpy as np
import pytest

from conftest import (
    random_classification_data,
    random_cost,
    random_regression_data,
    random_victim,
)
from dppoison import (
    CostSpec,
    Dataset,
    Goal,
    Mechanism,
    ModelParams,
    VictimSpec,
    batch_item_gradients,
    cost_gradient,
    eval_cost,
    finite_difference_oracle,
    sigmoid,
    train_base_ridge_constrained,
    train_mechanism,
)
from dppoison import gradients, learners
from dppoison.harness import estimate_attack_cost


# every goal, and loss, that an objective-perturbation logistic victim's
# attack cost takes
GOALS_AND_LOSSES = [
    ("parameter-targeting", "logistic"),
    ("label-targeting", "logistic"),
    ("label-targeting", "squared"),
    ("label-aversion", "logistic"),
    ("label-aversion", "squared"),
]


def goal_cost(rng, goal, loss, d):
    """A CostSpec of goal and loss: a random target, or six random
    evaluation items with +-1 labels."""
    if goal == "parameter-targeting":
        return CostSpec(goal=goal, target_model=ModelParams(rng.standard_normal(d)), loss=loss)
    return CostSpec(goal=goal, eval_set=random_classification_data(rng, n=6, d=d), loss=loss)


def item_gradient(victim, data, i, model, b, cost_grad):
    """batch_item_gradients for the single item i: ((d,), float)."""
    feats, labels = batch_item_gradients(victim, data, model, b, cost_grad, [i])
    return feats[0], labels[0]


class TestCostGradient:
    def test_zero_at_target(self):
        c = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=ModelParams([1.0, -2.0]))
        np.testing.assert_array_equal(cost_gradient(c, ModelParams([1.0, -2.0])), [0.0, 0.0])

    def test_label_targeting_logistic_at_zero_model(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        y = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        c = CostSpec(goal=Goal.LABEL_TARGETING, eval_set=Dataset(X, y))
        got = cost_gradient(c, ModelParams(np.zeros(3)))
        np.testing.assert_allclose(got, -(X.T @ y) / (2 * 6), rtol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(30):
            base = rng.choice(["logistic", "ridge"])
            data = (
                random_classification_data(rng, n=6)
                if base == "logistic"
                else random_regression_data(rng, n=6)
            )
            cost = random_cost(rng, data, base)
            theta = rng.standard_normal(data.dim)
            model = ModelParams(theta)
            analytic = cost_gradient(cost, model)
            fd = np.empty(data.dim)
            for c in range(data.dim):
                e = np.zeros(data.dim)
                e[c] = h
                fd[c] = (
                    eval_cost(cost, ModelParams(theta + e))
                    - eval_cost(cost, ModelParams(theta - e))
                ) / (2 * h)
            np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)

    def test_dimension_mismatch(self):
        c = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=ModelParams([1.0, 2.0]))
        with pytest.raises(ValueError):
            cost_gradient(c, ModelParams([1.0]))

    @pytest.mark.parametrize("goal, loss", GOALS_AND_LOSSES)
    def test_stack_rows_are_single_models(self, goal, loss):
        # row i of a stack's gradient is model i's; a label goal's stack
        # takes matrix-matrix products where one model takes matrix-vector
        # ones, whose sums round differently, so the rows agree to 1e-12
        # relative (parameter targeting is one subtraction, bit for bit)
        rng = np.random.default_rng(4)
        cost = goal_cost(rng, goal, loss, d=3)
        thetas = rng.standard_normal((5, 3))
        stack = cost_gradient(cost, ModelParams(thetas))
        assert stack.shape == (5, 3)
        for theta, row in zip(thetas, stack):
            single = cost_gradient(cost, ModelParams(theta))
            if goal == "parameter-targeting":
                np.testing.assert_array_equal(row, single)
            np.testing.assert_allclose(row, single, rtol=0, atol=1e-12 * np.max(np.abs(single)))


class TestStackedLogisticGradients:
    @pytest.mark.parametrize("goal, loss", GOALS_AND_LOSSES)
    def test_lanes_match_their_own_batch_item_gradients(self, goal, loss):
        # four objective-perturbation logistic models, each trained on the
        # clean data with its own items moved, with ragged k per lane and a
        # k = 0 lane: the one-pass stack gives each lane's items what
        # batch_item_gradients gives them from that lane's model alone. The
        # stack's batched products and solve sum in another order than the
        # single lane's matrix-vector kernels, so the two agree to 1e-12
        # relative to the largest entry (250 random instances of this test
        # differed by at most 8.3e-16)
        rng = np.random.default_rng(12)
        clean = random_classification_data(rng, n=14, d=3)
        victim = VictimSpec("objective", "logistic", lam=1.3, epsilon=1.0)
        cost = goal_cost(rng, goal, loss, d=3)
        selections = [np.array([0, 4, 9]), np.arange(0), np.array([1, 2, 3, 7, 13]), np.array([8])]
        datas, models = [], []
        for items in selections:
            moved = rng.standard_normal((len(items), 3)) * 0.4
            datas.append(clean.with_modified(items, moved, clean.y[items]))
            models.append(train_mechanism(victim, datas[-1], rng.standard_normal(3)))
        X, y = np.stack([ds.X for ds in datas]), np.stack([ds.y for ds in datas])
        theta = np.stack([model.theta for model in models])
        lanes = np.repeat(np.arange(4), [len(items) for items in selections])
        rows = np.concatenate(selections)
        feats, labels = gradients._stacked_logistic_grads(
            X, y, theta, victim.lam, cost_gradient(cost, ModelParams(theta)), lanes, rows
        )
        assert feats.shape == (9, 3)
        np.testing.assert_array_equal(labels, np.zeros(9))
        for i, (ds, model, items) in enumerate(zip(datas, models, selections)):
            want, want_labels = batch_item_gradients(
                victim, ds, model, np.zeros(3), cost_gradient(cost, model), items
            )
            np.testing.assert_array_equal(want_labels, np.zeros(len(items)))
            got = feats[lanes == i]
            assert got.shape == want.shape
            if len(items):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


class TestScalarOracle:
    def test_logistic_implicit_derivative_n1_d1(self, monkeypatch):
        # For one item the stationarity condition g(theta, x) = 0 can be
        # differentiated by hand: dtheta/dx = -(dg/dx)/(dg/dtheta).
        monkeypatch.setattr(learners, "GRAD_TOL", 1e-12)
        rng = np.random.default_rng(2)
        for _ in range(30):
            x = float(rng.uniform(-0.9, 0.9))
            y = float(rng.choice([-1.0, 1.0]))
            lam = float(rng.uniform(0.5, 3.0))
            bval = float(rng.normal(scale=0.5))
            cg = float(rng.normal())
            data = Dataset([[x]], [y])
            victim = random_victim(rng, "logistic", "objective", lam=lam)
            model = train_mechanism(victim, data, np.array([bval]))
            theta = float(model.theta[0])
            p = float(sigmoid(-y * theta * x))
            w = p * (1.0 - p)
            dg_dtheta = lam + w * x * x
            dg_dx = -y * p + w * x * theta
            oracle = -(dg_dx / dg_dtheta) * cg
            feats, label = item_gradient(victim, data, 0, model, np.array([bval]), [cg])
            assert feats[0] == pytest.approx(oracle, abs=1e-8)
            assert label == 0.0


class TestReductions:
    def test_zero_cost_gradient_gives_zero(self):
        rng = np.random.default_rng(3)
        cdata = random_classification_data(rng, n=8, d=3)
        rdata = random_regression_data(rng, n=8, d=3)
        zero = np.zeros(3)
        b = rng.standard_normal(3)
        for base, data in (("logistic", cdata), ("ridge", rdata)):
            for mech in ("objective", "output"):
                victim = random_victim(rng, base, mech, lam=1.0, rho=0.5 if base == "ridge" else None)
                model = train_mechanism(victim, data, b)
                feats, label = item_gradient(victim, data, 2, model, b, zero)
                assert np.all(feats == 0.0)
                assert label == 0.0

    def test_output_with_zero_noise_equals_objective(self):
        rng = np.random.default_rng(4)
        cg = rng.standard_normal(3)
        zero = np.zeros(3)
        for base, data in (
            ("logistic", random_classification_data(rng, n=8, d=3)),
            ("ridge", random_regression_data(rng, n=8, d=3)),
        ):
            obj = random_victim(rng, base, "objective", lam=1.0, rho=0.5 if base == "ridge" else None)
            out = random_victim(rng, base, "output", lam=1.0, rho=0.5 if base == "ridge" else None)
            model = train_mechanism(obj, data, zero)
            a = item_gradient(obj, data, 1, model, zero, cg)
            c = item_gradient(out, data, 1, model, zero, cg)
            np.testing.assert_array_equal(a[0], c[0])
            assert a[1] == c[1]

    def test_linearity_in_cost_gradient(self):
        rng = np.random.default_rng(5)
        data = random_regression_data(rng, n=10, d=4)
        victim = random_victim(rng, "ridge", "objective", lam=1.0, rho=0.6)
        model = train_mechanism(victim, data, np.zeros(4))
        g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
        a = 2.75
        idx = np.arange(data.n)
        f1, l1 = batch_item_gradients(victim, data, model, np.zeros(4), g1, idx)
        f2, l2 = batch_item_gradients(victim, data, model, np.zeros(4), g2, idx)
        fc, lc = batch_item_gradients(victim, data, model, np.zeros(4), a * g1 + g2, idx)
        np.testing.assert_allclose(fc, a * f1 + f2, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(lc, a * l1 + l2, rtol=1e-12, atol=1e-14)


class TestRidgeClosedFormOracle:
    def test_unconstrained_gradient_matches_closed_form(self):
        # with mu = 0 the trained model is (X'X + lam I)^{-1}(X'y - b);
        # differentiate that closed form numerically, no solver involved
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(10):
            data = random_regression_data(rng, n=8, d=3)
            lam = 2.0
            target = ModelParams(rng.standard_normal(3) * 0.1)
            cost = CostSpec(goal=Goal.PARAMETER_TARGETING, target_model=target, loss="squared")
            victim = random_victim(rng, "ridge", "objective", lam=lam, rho=100.0)
            model = train_base_ridge_constrained(data, lam, rho=100.0)
            assert model.mu == 0.0
            cg = cost_gradient(cost, model)
            i = int(rng.integers(data.n))
            got_feats, got_label = item_gradient(victim, data, i, model, np.zeros(3), cg)

            def closed_form_cost(X, y):
                theta = np.linalg.solve(X.T @ X + lam * np.eye(3), X.T @ y)
                return eval_cost(cost, ModelParams(theta))

            fd = np.empty(3)
            for c in range(3):
                Xp, Xm = data.X.copy(), data.X.copy()
                Xp[i, c] += h
                Xm[i, c] -= h
                fd[c] = (closed_form_cost(Xp, data.y) - closed_form_cost(Xm, data.y)) / (2 * h)
            np.testing.assert_allclose(got_feats, fd, rtol=1e-6, atol=1e-9)

            yp, ym = data.y.copy(), data.y.copy()
            yp[i] += h
            ym[i] -= h
            fd_label = (closed_form_cost(data.X, yp) - closed_form_cost(data.X, ym)) / (2 * h)
            assert got_label == pytest.approx(fd_label, rel=1e-6, abs=1e-9)

    def test_label_gradient_sign(self):
        # d_label = x_i' H^{-1} cost_grad; with cost_grad = x_i and H
        # positive definite the quadratic form is strictly positive
        rng = np.random.default_rng(8)
        data = random_regression_data(rng, n=8, d=3)
        victim = random_victim(rng, "ridge", "objective", lam=1.0, rho=100.0)
        model = train_base_ridge_constrained(data, lam=1.0, rho=100.0)
        for i in range(data.n):
            _, label = item_gradient(victim, data, i, model, np.zeros(3), data.X[i])
            assert label > 0.0


class TestFiniteDifferenceOracle:
    def test_step_size_validated(self):
        rng = np.random.default_rng(9)
        data = random_classification_data(rng, n=5, d=2)
        victim = random_victim(rng, "logistic", "objective", lam=1.0)
        cost = random_cost(rng, data, "logistic")
        for h in (1e-7, 1e-3):
            with pytest.raises(ValueError):
                finite_difference_oracle(victim, data, 0, np.zeros(2), cost, h=h)

    def test_error_shrinks_with_h(self, monkeypatch):
        monkeypatch.setattr(learners, "GRAD_TOL", 1e-12)
        rng = np.random.default_rng(10)
        data = random_classification_data(rng, n=6, d=2)
        victim = random_victim(rng, "logistic", "objective", lam=1.0)
        cost = CostSpec(
            goal=Goal.PARAMETER_TARGETING, target_model=ModelParams(rng.standard_normal(2))
        )
        model = train_mechanism(victim, data, np.zeros(2))
        exact, _ = item_gradient(victim, data, 0, model, np.zeros(2), cost_gradient(cost, model))
        errs = []
        for h in (1e-4, 5e-5):
            fd, label = finite_difference_oracle(victim, data, 0, np.zeros(2), cost, h=h)
            assert label == 0.0
            errs.append(np.linalg.norm(fd - exact))
        # both already deep in agreement; the larger step cannot be better
        # than the smaller one by more than solver noise
        assert errs[0] <= 1e-7
        assert errs[1] <= 1e-7

    def test_each_quotient_solves_once(self, monkeypatch):
        # every retrain starts warm at the unperturbed model, which each
        # call trains once; only that model's noiseless start, cached on the
        # unperturbed data, is solved from zero. 20 items at d = 3 take 6
        # quotient solves each, 20 unperturbed solves and 1 from zero
        rng = np.random.default_rng(11)
        data = random_classification_data(rng, n=40, d=3)
        victim = random_victim(rng, "logistic", "objective", lam=1.0)
        cost = random_cost(rng, data, "logistic")
        b = rng.standard_normal(3)
        solver = learners._solve_logistic
        cold = []

        def counted(X, y, lam, b, warm_start=None):
            cold.append(warm_start is None)
            return solver(X, y, lam, b, warm_start)

        monkeypatch.setattr(learners, "_solve_logistic", counted)
        for i in range(20):
            finite_difference_oracle(victim, data, i, b, cost)
        assert len(cold) == 20 * 6 + 20 + 1 and sum(cold) == 1


class TestRidgeSharedGram:
    """The ridge trainer and _ridge_grads read X'X and its eigendecomposition
    from the dataset's cache, which forms each once per dataset."""

    @staticmethod
    def reference(victim, data, model, b, cost_grad, idx):
        """The ridge item gradients written out: X'X and its eigenbasis
        formed here, v = (X'X + (lam+mu)I)^-1 cost_grad solved in that
        basis, rows copied by fancy indexing, and the feature gradient
        -(xv theta' + resid v') as one rank-two product."""
        theta_eff = model.theta - b if victim.mechanism is Mechanism.OUTPUT else model.theta
        evals, Q = np.linalg.eigh(data.X.T @ data.X)
        v = Q @ ((Q.T @ cost_grad) / (evals + victim.lam + model.mu))
        X, y = data.X[idx], data.y[idx]
        xv = X @ v
        resid = X @ theta_eff - y
        return np.column_stack([xv, resid]) @ -np.vstack([theta_eff, v]), xv

    @pytest.mark.parametrize("mechanism", ["objective", "output"])
    def test_all_items_and_subsets_match_reference(self, mechanism):
        # Rows of one call are compared with the reference over the same
        # index array: a BLAS matrix-vector product may round a row
        # differently depending on how many rows it is given, so the
        # all-item call is not bit for bit the union of subset calls.
        rng = np.random.default_rng(8)
        data = random_regression_data(rng, n=53, d=11)
        victim = random_victim(rng, "ridge", mechanism, lam=0.3, rho=0.4)
        b = rng.standard_normal(11)
        model = train_mechanism(victim, data, b)
        assert model.mu > 0
        g = rng.standard_normal(11)
        parts = [np.sort(p) for p in np.array_split(rng.permutation(data.n), 4)]
        for idx in [np.arange(data.n), *parts]:
            got = batch_item_gradients(victim, data, model, b, g, idx)
            want = self.reference(victim, data, model, b, g, idx)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.fixture()
    def gram_reads(self, monkeypatch):
        """Every Dataset.gram read as (dataset, pair), in call order."""
        reads = []
        fget = Dataset.gram.fget

        def counted(data):
            pair = fget(data)
            reads.append((data, pair))
            return pair

        monkeypatch.setattr(Dataset, "gram", property(counted))
        return reads

    @pytest.mark.parametrize("mechanism", ["objective", "output"])
    def test_estimate_forms_gram_once(self, gram_reads, monkeypatch, mechanism):
        rng = np.random.default_rng(9)
        data = random_regression_data(rng, n=30, d=3)
        victim = VictimSpec(mechanism, "ridge", lam=1.0, epsilon=1.0, rho=0.5)
        cost = random_cost(rng, data, "ridge")
        eighs = []
        eigh = np.linalg.eigh

        def counted(A):
            eighs.append(A)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        estimate_attack_cost(victim, data, cost, 100, seed=0)  # 4 blocks of 32
        # an objective victim solves each of the 4 blocks and an output
        # victim its noiseless base once, and the eigendecomposition reads
        # X'X once more; but X'X and its eigendecomposition are formed once:
        # every read returns the same pair, and eigh ran once, on that X'X
        assert len(gram_reads) == (5 if mechanism == "objective" else 2)
        assert all(d is data and pair[0] is gram_reads[0][1][0] for d, pair in gram_reads)
        assert len(eighs) == 1 and eighs[0] is gram_reads[0][1][0]

    @pytest.mark.parametrize("mechanism", ["objective", "output"])
    def test_sgd_step_forms_gram_once(self, gram_reads, mechanism):
        rng = np.random.default_rng(10)
        data = random_regression_data(rng, n=30, d=3)
        victim = VictimSpec(mechanism, "ridge", lam=1.0, epsilon=1.0, rho=0.5)
        cost = random_cost(rng, data, "ridge")
        b = learners.sample_noise(data.dim, 0.1, rng)
        model = train_mechanism(victim, data, b)
        batch_item_gradients(victim, data, model, b, cost_gradient(cost, model), np.arange(5))
        # one read by the trainer, one by the eigendecomposition that the
        # trainer and the gradient share, the same pair
        assert len(gram_reads) == 2
        (d1, p1), (d2, p2) = gram_reads
        assert d1 is d2 is data and p1[0] is p2[0] and p1[1] is p2[1]
