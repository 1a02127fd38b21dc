"""Closed-form resistance bounds for private learners under poisoning.

An attacker who modifies at most k items of the training set of an
epsilon-differentially-private learner can shrink (or grow) the expected
attack cost J only by a factor exp(k*epsilon): privacy itself bounds how
effective poisoning can be, independently of the learning procedure.
Two calculators evaluate that bound (or its (epsilon, delta) relaxation,
chosen by the query's delta) and the implied minimum number of items an
attacker must touch to reach a given cost reduction.

Sign conventions: for a nonnegative cost the attacker drives J toward 0
from above, so the bound is a floor below J(D); for a nonpositive cost
the attacker drives J downward and the bound is again a floor (more
negative than J(D)). With delta > 0 the floors need a uniform bound
cbar on |C|.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .core import Sign, _check_fields

__all__ = ["BoundQuery", "lower_bound", "min_items"]

# exp overflows shortly above this; callers may legally ask for huge k
# (e.g. tau = infinity sweeps), so clamp instead of overflowing.
_EXP_LIMIT = 700.0

# Slack used when rounding analytic item counts up to an integer, so a
# count that is an integer up to float error does not get bumped by one.
_CEIL_SLACK = 1e-9


def _ceil_with_slack(v):
    f = math.floor(v)
    if v - f <= _CEIL_SLACK * max(1.0, abs(v)):
        return int(f)
    return int(f) + 1


@dataclass(frozen=True)
class BoundQuery:
    """Inputs shared by the bound calculators.

    j_clean is the attack cost on the clean data, k the number of items
    the attacker may modify, tau the desired cost-reduction factor. cbar
    bounds |C|, so it bounds |j_clean| as well.
    """

    j_clean: float
    epsilon: float
    k: int = 0
    delta: float = 0.0
    cbar: Optional[float] = None
    sign: Sign = Sign.NON_NEGATIVE
    tau: float = 1.0

    def __post_init__(self):
        _check_fields(self, "tau")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if not self.tau >= 1.0:
            raise ValueError("tau must be at least 1")
        if self.sign is Sign.NON_NEGATIVE and self.j_clean < 0:
            raise ValueError("a non-negative cost cannot have j_clean < 0")
        if self.sign is Sign.NON_POSITIVE and self.j_clean > 0:
            raise ValueError("a non-positive cost cannot have j_clean > 0")
        if self.delta > 0 and self.cbar is None:
            raise ValueError("delta > 0 requires cbar")
        if self.cbar is not None and self.cbar <= 0:
            raise ValueError("cbar must be positive")
        if self.cbar is not None and abs(self.j_clean) > self.cbar:
            raise ValueError(f"|j_clean| = {abs(self.j_clean)!r} cannot exceed cbar = {self.cbar!r}, which bounds |C|")


def _delta_slack(q, m):
    """a * m with a = cbar * delta / (e^eps - 1), and 0 at delta = 0. It is
    computed as cbar * delta * (m / (e^eps - 1)), so m = e^eps - 1 gives
    exactly cbar * delta. Past exp range e^eps - 1 rounds to e^eps, so a
    is cbar * delta * e^-eps, which tends to 0 without overflow."""
    if q.delta == 0.0:
        return 0.0
    if q.epsilon > _EXP_LIMIT:
        return q.cbar * q.delta * m * math.exp(-q.epsilon)
    return q.cbar * q.delta * (m / math.expm1(q.epsilon))


def _logaddexp(x, y):
    """log(e^x + e^y) without overflow."""
    hi, lo = max(x, y), min(x, y)
    return hi + math.log1p(math.exp(lo - hi))


def lower_bound(q):
    """Floor on J after poisoning k items of an (epsilon, delta)-DP learner.

    With a = cbar * delta / (exp(eps) - 1):

        nonnegative cost:  max(exp(-k*eps) * (J + a) - a, 0)
        nonpositive cost:  max(exp(+k*eps) * (J - a) + a, -cbar)

    evaluated as exp(-/+k*eps) * J plus a * (exp(-/+k*eps) - 1), so that
    k = 0 gives J exactly and a large a does not cancel against J.

    At delta = 0 this is the pure bound: a = 0 and no -cbar clamp, so the
    floor is exactly exp(-k*eps) * J, or exp(k*eps) * J for a nonpositive
    cost. The nonpositive branch amplifies with exp(+k*eps): each
    modified item can cut at most a factor exp(eps) plus the delta slack
    from the cost, and unwinding that recursion k times multiplies the
    (shifted) clean cost by exp(k*eps). With delta > 0 the cost can never
    fall below -cbar, hence the clamp. For k*eps beyond exp range the
    limit value is returned directly (0, -cbar, or -inf for a pure
    nonpositive cost, which carries no finite floor without cbar).
    """
    floor = -math.inf if q.delta == 0.0 else -q.cbar
    ke = q.k * q.epsilon
    if q.sign is Sign.NON_NEGATIVE:
        if ke > _EXP_LIMIT:
            return 0.0
        return max(0.0, math.exp(-ke) * q.j_clean + _delta_slack(q, math.expm1(-ke)))
    if q.j_clean == 0.0 and q.delta == 0.0:
        return 0.0  # 0 * e^(k eps), also past exp range
    if ke > _EXP_LIMIT:
        return floor
    return max(math.exp(ke) * q.j_clean - _delta_slack(q, math.expm1(ke)), floor)


def min_items(q):
    """Minimum modified items to cut the cost by a factor tau.

    Pure privacy (delta = 0): ceil(log(tau) / eps), and tau = inf returns
    inf, since pure privacy never lets the cost reach zero.

    With delta > 0, for a nonnegative cost (target J(D)/tau, tau >= 1):
        ceil((1/eps) * log(((e^eps - 1) J tau + cbar delta tau)
                           / ((e^eps - 1) J + cbar delta tau)))
    and the tau = inf limit is finite: the weaker guarantee lets an
    attacker null the cost with finitely many items.

    With delta > 0, for a nonpositive cost (target tau * J(D), tau in
    [1, -cbar/J(D)]):
        ceil((1/eps) * log(((e^eps - 1) J tau - cbar delta)
                           / ((e^eps - 1) J - cbar delta)))
    """
    j, tau = q.j_clean, q.tau
    if q.delta == 0.0:
        if math.isinf(tau):
            return math.inf
        return _ceil_with_slack(math.log(tau) / q.epsilon)
    if j == 0.0:
        raise ValueError("min_items with delta > 0 requires j_clean != 0")
    # in logs, as e^eps overflows past exp range: lj = log((e^eps - 1) |J|)
    lj = math.log(abs(j)) + q.epsilon + math.log(-math.expm1(-q.epsilon))
    lc = math.log(q.cbar) + math.log(q.delta)
    if q.sign is Sign.NON_NEGATIVE:
        if math.isinf(tau):
            log_ratio = _logaddexp(lj, lc) - lc
        else:
            lt = math.log(tau)
            log_ratio = lt + _logaddexp(lj, lc) - _logaddexp(lj, lc + lt)
    else:
        tau_max = -q.cbar / j
        if tau > tau_max * (1.0 + 1e-12):
            raise ValueError(f"tau must lie in [1, {tau_max}] for this nonpositive cost")
        log_ratio = _logaddexp(lj + math.log(tau), lc) - _logaddexp(lj, lc)
    return _ceil_with_slack(log_ratio / q.epsilon)
