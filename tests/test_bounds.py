"""Resistance-bound calculators: closed forms, limits, and consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppoison import BoundQuery, Sign, lower_bound, min_items


def q(j, eps, **kw):
    return BoundQuery(j_clean=j, epsilon=eps, **kw)


# |J|, epsilon and k with k * epsilon <= 500, inside exp range, where the
# delta = 0 floor has the closed form exp(-/+ k * eps) * J.
magnitudes = st.floats(min_value=0.0, max_value=1e3)
epsilons = st.floats(min_value=1e-3, max_value=5.0)
budgets = st.integers(min_value=0, max_value=100)
signs = st.sampled_from(Sign)
deltas = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
cbars = st.floats(min_value=0.1, max_value=10.0)


def signed(j, sign):
    return j if sign is Sign.NON_NEGATIVE else -j


def within(j, cbar):
    """Scale a drawn |J| from [0, 1e3] into [0, cbar]: cbar bounds |C|, so
    a query with |J| > cbar is invalid."""
    return j if cbar is None else j / 1e3 * cbar


class TestQueryValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(j_clean=0.5, epsilon=0.0),
            dict(j_clean=0.5, epsilon=0.1, delta=1.0, cbar=1.0),
            dict(j_clean=0.5, epsilon=0.1, delta=-0.1),
            dict(j_clean=0.5, epsilon=0.1, k=-1),
            dict(j_clean=0.5, epsilon=0.1, tau=0.5),
            dict(j_clean=-0.5, epsilon=0.1),
            dict(j_clean=0.5, epsilon=0.1, sign=Sign.NON_POSITIVE),
            dict(j_clean=0.5, epsilon=0.1, delta=0.01),
            dict(j_clean=0.5, epsilon=0.1, delta=0.01, cbar=0.0),
            dict(j_clean=1e308, epsilon=5.0, delta=0.5, cbar=1.0, tau=2.0),
            dict(j_clean=-2.0, epsilon=0.1, cbar=1.0, sign=Sign.NON_POSITIVE),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BoundQuery(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["j_clean", "epsilon", "delta", "cbar"])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(j_clean=0.5, epsilon=0.1, delta=0.01, cbar=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            BoundQuery(**kwargs)

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            BoundQuery(0.5, 0.1, tau=math.nan)

    def test_string_sign_accepted(self):
        assert BoundQuery(-0.5, 1.0, sign="non-positive").sign is Sign.NON_POSITIVE


class TestLargeEpsilon:
    # e^eps - 1 overflows past eps = 709.78; the delta slack
    # a = cbar * delta / (e^eps - 1) tends to 0 there
    @pytest.mark.parametrize("eps", [709.0, 710.0, 800.0, 1000.0, 1e6])
    def test_bound_takes_the_vanishing_slack_limit(self, eps):
        kw = dict(delta=0.1, cbar=1.0)
        assert lower_bound(q(0.5, eps, **kw)) == 0.5
        assert lower_bound(q(0.5, eps, k=1, **kw)) == 0.0
        assert lower_bound(q(-0.5, eps, sign=Sign.NON_POSITIVE, **kw)) == -0.5
        assert lower_bound(q(-0.5, eps, k=1, sign=Sign.NON_POSITIVE, **kw)) == -1.0

    @pytest.mark.parametrize("eps", [709.0, 710.0, 800.0, 1000.0, 1e6])
    def test_min_items_stays_finite(self, eps):
        kw = dict(delta=0.1, cbar=1.0)
        assert min_items(q(0.5, eps, tau=2.0, **kw)) == 1
        assert min_items(q(-0.5, eps, tau=2.0, sign=Sign.NON_POSITIVE, **kw)) == 1
        # log(1 + (e^eps - 1) * 0.5 / 0.1) / eps is (eps + log 5) / eps
        assert min_items(q(0.5, eps, tau=math.inf, **kw)) == 2


class TestPureBound:
    def test_k_zero_returns_clean_cost(self):
        assert lower_bound(q(0.5, 0.1)) == 0.5

    def test_nonnegative_decay(self):
        # ten items at eps = 0.1 shrink the floor by exactly e^{-1}
        got = lower_bound(q(0.5, 0.1, k=10))
        assert got == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)

    def test_nonpositive_amplification(self):
        got = lower_bound(q(-0.5, 0.1, k=10, sign=Sign.NON_POSITIVE))
        assert got == pytest.approx(-0.5 * math.exp(1.0), rel=1e-12)

    def test_overflow_guard(self):
        assert lower_bound(q(0.5, 1.0, k=10_000)) == 0.0
        assert lower_bound(q(-0.5, 1.0, k=10_000, sign=Sign.NON_POSITIVE)) == -math.inf
        assert lower_bound(q(0.0, 1.0, k=10_000, sign=Sign.NON_POSITIVE)) == 0.0

    def test_requires_delta_zero(self):
        # the pure floor applies only at delta = 0; delta > 0 weakens it
        assert lower_bound(q(0.5, 0.1, k=10, delta=0.01, cbar=1.0)) < 0.5 * math.exp(-1.0)

    @settings(max_examples=300, deadline=None)
    @given(j=magnitudes, eps=epsilons, k=st.integers(min_value=0, max_value=2000), sign=signs)
    def test_monotone_in_k(self, j, eps, k, sign):
        # also across the k * eps > 700 limit
        j = signed(j, sign)
        assert lower_bound(q(j, eps, k=k + 1, sign=sign)) <= lower_bound(q(j, eps, k=k, sign=sign))


class TestMinItemsPure:
    def test_tau_one_needs_nothing(self):
        assert min_items(q(0.5, 0.1, tau=1.0)) == 0

    def test_tau_e(self):
        assert min_items(q(0.5, 0.1, tau=math.e)) == 10

    def test_tau_twenty(self):
        assert min_items(q(0.5, 0.1, tau=20.0)) == 30

    def test_tau_inf(self):
        assert min_items(q(0.5, 0.1, tau=math.inf)) == math.inf

    def test_invalid(self):
        with pytest.raises(ValueError):
            min_items(q(0.5, 0.0, tau=2.0))
        with pytest.raises(ValueError):
            min_items(q(0.5, 0.1, tau=0.9))


class TestApproxBound:
    def test_worked_example(self):
        # eps=0.1, delta=0.01, cbar=1, J=0.5, k=10:
        #   a = 0.01/(e^0.1 - 1) = 0.0950833
        #   e^{-1} (0.5 + a) - a = 0.123836
        got = lower_bound(q(0.5, 0.1, k=10, delta=0.01, cbar=1.0))
        a = 0.01 / math.expm1(0.1)
        assert got == pytest.approx(math.exp(-1.0) * (0.5 + a) - a, rel=1e-12)
        assert got == pytest.approx(0.1238, abs=1e-4)

    @settings(max_examples=300, deadline=None)
    @given(j=magnitudes, eps=epsilons, k=budgets, cbar=st.none() | cbars)
    def test_delta_zero_equals_pure_nonnegative(self, j, eps, k, cbar):
        j = within(j, cbar)
        assert lower_bound(q(j, eps, k=k, cbar=cbar)) == math.exp(-k * eps) * j

    @settings(max_examples=300, deadline=None)
    @given(j=magnitudes, eps=epsilons, k=budgets, cbar=st.none() | cbars)
    def test_delta_zero_equals_pure_nonpositive(self, j, eps, k, cbar):
        # at delta = 0 a given cbar does not clamp the floor
        j = within(j, cbar)
        got = lower_bound(q(-j, eps, k=k, cbar=cbar, sign=Sign.NON_POSITIVE))
        assert got == math.exp(k * eps) * -j

    def test_nonpositive_clamped_at_cbar(self):
        got = lower_bound(q(-0.5, 0.3, k=50, delta=0.01, cbar=2.0, sign=Sign.NON_POSITIVE))
        assert got == -2.0

    def test_floor_never_below_zero_nonnegative(self):
        got = lower_bound(q(0.001, 0.5, k=100, delta=0.2, cbar=1.0))
        assert got == 0.0

    def test_requires_cbar(self):
        with pytest.raises(ValueError):
            lower_bound(q(0.5, 0.1, delta=0.01))

    def test_approx_never_tighter_than_pure_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            eps = float(rng.uniform(0.05, 2.0))
            j = float(rng.uniform(0.0, 3.0))
            k = int(rng.integers(0, 40))
            delta = float(rng.uniform(0.0, 0.3))
            cbar = float(rng.uniform(0.5, 5.0))
            query = q(min(j, cbar), eps, k=k, delta=delta, cbar=cbar)
            pure = lower_bound(q(query.j_clean, eps, k=query.k))
            # delta slack can only weaken the floor
            assert lower_bound(query) <= pure + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(j=magnitudes, eps=epsilons, k=budgets, sign=signs, delta=deltas, cbar=cbars)
    def test_monotone_in_k_both_signs(self, j, eps, k, sign, delta, cbar):
        j = signed(within(j, cbar), sign)
        now = lower_bound(q(j, eps, k=k, delta=delta, cbar=cbar, sign=sign))
        later = lower_bound(q(j, eps, k=k + 1, delta=delta, cbar=cbar, sign=sign))
        assert later <= now
        if delta > 0:
            assert later >= -cbar


class TestMinItemsApprox:
    def test_delta_zero_reduces_to_pure(self):
        # ceil(log(tau) / eps) at delta = 0, and the delta > 0 formula
        # reaches the same count as delta -> 0
        for tau, pure in ((1.0, 0), (1.5, 5), (math.e, 10), (20.0, 30)):
            assert min_items(q(0.5, 0.1, cbar=1.0, tau=tau)) == pure
            assert min_items(q(0.5, 0.1, delta=1e-12, cbar=1.0, tau=tau)) == pure

    def test_tau_inf_is_finite_with_delta(self):
        query = q(0.5, 0.1, delta=0.01, cbar=1.0, tau=math.inf)
        k = min_items(query)
        assert k == 19
        expected = math.ceil(math.log1p(math.expm1(0.1) * 0.5 / 0.01) / 0.1)
        assert k == expected

    def test_tau_inf_delta_zero_is_infinite(self):
        assert min_items(q(0.5, 0.1, cbar=1.0, tau=math.inf)) == math.inf

    def test_zero_clean_cost_rejected(self):
        with pytest.raises(ValueError):
            min_items(q(0.0, 0.1, delta=0.01, cbar=1.0, tau=2.0))

    def test_nonpositive_tau_range(self):
        # cbar/|J| = 4, so tau up to 4 is admissible and 5 is not
        ok = q(-0.5, 0.2, delta=0.01, cbar=2.0, sign=Sign.NON_POSITIVE, tau=4.0)
        assert min_items(ok) >= 0
        with pytest.raises(ValueError):
            min_items(
                q(-0.5, 0.2, delta=0.01, cbar=2.0, sign=Sign.NON_POSITIVE, tau=5.0)
            )

    def test_nonpositive_consistency(self):
        # at the returned k the bound must have passed tau * J
        for tau in (1.5, 2.0, 3.0):
            query = q(-0.5, 0.2, delta=0.005, cbar=2.0, sign=Sign.NON_POSITIVE, tau=tau)
            k = min_items(query)
            target = tau * query.j_clean
            at_k = lower_bound(
                q(-0.5, 0.2, k=k, delta=0.005, cbar=2.0, sign=Sign.NON_POSITIVE)
            )
            assert at_k <= target + 1e-9
            if k > 0:
                at_prev = lower_bound(
                    q(-0.5, 0.2, k=k - 1, delta=0.005, cbar=2.0, sign=Sign.NON_POSITIVE)
                )
                assert at_prev > target - 1e-9
