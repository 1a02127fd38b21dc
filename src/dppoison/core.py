"""Domain types and attack cost functions.

Defines the dataset container, trained-model parameters, the victim
description (privacy mechanism, base learner, hyperparameters), the
attack-goal description with its three cost functions, the projection of
items onto the feasible set, and the modification distance used by deep
selection.
"""

import dataclasses
import enum
import math
import numbers
import typing
from dataclasses import dataclass
from typing import Annotated, Literal, Optional

import numpy as np

from .rng import _ENTROPY_MOD

__all__ = [
    "Mechanism",
    "BaseLearner",
    "Goal",
    "Sign",
    "Dataset",
    "ModelParams",
    "VictimSpec",
    "CostSpec",
    "eval_cost",
    "project_rows_inplace",
    "modification_distances",
    "sigmoid",
    "softplus",
]


def sigmoid(t):
    """Numerically stable logistic function 1 / (1 + exp(-t))."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(t, dtype=float)))


def softplus(t):
    """Numerically stable log(1 + exp(t)), as max(t, 0) + log1p(exp(-|t|)).

    Within a few ulps of np.logaddexp(0, t), whose scalar loop is several
    times slower on a block of draws; built in one work array.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    np.abs(t, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(t, 0.0)
    return out[()]


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class Mechanism(str, enum.Enum):
    """How the victim injects privacy noise."""

    OBJECTIVE = "objective"
    OUTPUT = "output"


class BaseLearner(str, enum.Enum):
    LOGISTIC = "logistic"
    RIDGE = "ridge"


class Goal(str, enum.Enum):
    """What the attacker tries to achieve."""

    PARAMETER_TARGETING = "parameter-targeting"
    LABEL_TARGETING = "label-targeting"
    LABEL_AVERSION = "label-aversion"


class Sign(str, enum.Enum):
    """Sign class of the cost function (determines which bound applies)."""

    NON_NEGATIVE = "non-negative"
    NON_POSITIVE = "non-positive"


class _Range(typing.NamedTuple):
    """A field's range, checked after its type: <field> must be <text>."""

    text: str
    holds: typing.Callable
    allows_inf: bool = False


Positive = Annotated[float, _Range("positive", lambda v: v > 0)]
Count = Annotated[int, _Range("nonnegative", lambda v: v >= 0)]
Fraction = Annotated[float, _Range("in [0, 1)", lambda v: 0 <= v < 1)]
# the range rng takes seeds in, checked here so a config fails before any output
Seed = Annotated[int, _Range("in [0, 2**128)", lambda v: 0 <= v < _ENTROPY_MOD)]
# the labels' range that normalize_dataset maps onto [-1, 1]
LabelRange = Annotated[tuple[float, float], _Range("increasing", lambda v: v[0] < v[1])]


def AtLeast(m, tp=int):
    """An int field of at least m; a float one (tp=float) may also be inf."""
    return Annotated[tp, _Range(f"at least {m}", lambda v: v >= m, allows_inf=True)]


def _checked(name, value, tp):
    """value as a field annotated tp stores it, else ValueError. Optional:
    may be None; numpy scalar: stored as a Python one; enum: one of the
    members' values, stored as the member; Literal: one of the choices;
    int: an integer, not a bool; float: a real number, not a bool, finite
    (as every int is) unless its range allows inf; dict[K, V]: keys pass
    K, values V; tuple[T, ...] or tuple[T1, T2]: a tuple or list (of that
    length) whose entry i passes its type as <name>[i], stored as a tuple;
    other class: an instance; Annotated[tp, range]: tp, then the range."""
    if typing.get_origin(tp) is typing.Union:  # Optional[tp]
        if value is None:
            return None
        tp = typing.get_args(tp)[0]
    tp, rule = typing.get_args(tp) if typing.get_origin(tp) is typing.Annotated else (tp, None)
    if isinstance(value, np.generic):
        value = value.item()
    if typing.get_origin(tp) is typing.Literal:
        if value not in typing.get_args(tp):
            raise ValueError(f"{name} must be one of {typing.get_args(tp)}, got {value!r}")
    elif typing.get_origin(tp) is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a dict, got {value!r}")
        kt, vt = typing.get_args(tp)
        value = {_checked(f"{name} key", k, kt): _checked(f"{name}[{k!r}]", v, vt) for k, v in value.items()}
    elif typing.get_origin(tp) is tuple:
        types = typing.get_args(tp)
        fixed = types[-1] is not ...
        if not isinstance(value, (tuple, list)) or fixed and len(value) != len(types):
            raise ValueError(f"{name} must be a list{f' of {len(types)} entries' if fixed else ''}, got {value!r}")
        value = tuple(_checked(f"{name}[{i}]", v, types[i if fixed else 0]) for i, v in enumerate(value))
    elif issubclass(tp, enum.Enum):
        choices = tuple(member.value for member in tp)
        if value not in choices:  # a member equals its str value
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")
        value = tp(value)
    elif tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    elif tp is float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value) and not (rule and rule.allows_inf):
            raise ValueError(f"{name} must be finite, got {value!r}")
    elif not isinstance(value, tp):
        raise ValueError(f"{name} must be a {tp.__name__}, got {value!r}")
    if rule is not None and not rule.holds(value):
        raise ValueError(f"{name} must be {rule.text}, got {value!r}")
    return value


def _check_fields(obj):
    """Store each field of a config dataclass as _checked returns it."""
    for f in dataclasses.fields(obj):
        object.__setattr__(obj, f.name, _checked(f.name, getattr(obj, f.name), f.type))


def _gram(X, y):
    return X.T @ X, X.T @ y


def _indices(indices):
    """An index array as ints; a non-empty one must be integers already,
    since a cast would truncate floats and take booleans as 0 and 1."""
    idx = np.asarray(indices)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"item indices must be integers, got dtype {idx.dtype}")
    return idx.astype(int, copy=False)


def _check_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("features and labels must be finite")


class Dataset:
    """Ordered, immutable collection of items sharing one feature dimension.

    Item indices are stable: selection and poisoning refer to items by
    their position in the original dataset.
    """

    __slots__ = ("_X", "_y", "_cache", "__weakref__")

    def __init__(self, features, labels):
        X = np.array(features, dtype=float)
        y = np.array(labels, dtype=float)
        if X.ndim != 2:
            raise ValueError("features must be a 2d array (n items by d features)")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be a vector with one entry per item")
        _check_finite(X, y)
        self._freeze(X, y)

    def _freeze(self, X, y):
        X.setflags(write=False)
        y.setflags(write=False)
        self._X = X
        self._y = y
        self._cache = {}

    @property
    def X(self):
        """(n, d) feature matrix, read-only."""
        return self._X

    @property
    def y(self):
        """(n,) label vector, read-only."""
        return self._y

    @property
    def n(self):
        return self._X.shape[0]

    @property
    def dim(self):
        return self._X.shape[1]

    def __len__(self):
        return self._X.shape[0]

    def cached(self, key, compute):
        """compute() on the first call with key, then the same value for
        the life of the dataset. For values that depend only on the data,
        such as its sufficient statistics or a noiseless model."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def gram(self):
        """(X'X, X'y) of the dataset's rows, the ridge sufficient
        statistics: formed on first use, then cached for the life of the
        dataset; read-only."""
        return self.cached("gram", lambda: tuple(map(_readonly, _gram(self._X, self._y))))

    @property
    def gram_eigh(self):
        """(evals, Q), np.linalg.eigh of X'X, cached as gram is."""
        return self.cached("gram eigh", lambda: tuple(map(_readonly, np.linalg.eigh(self.gram[0]))))

    def with_modified(self, indices, features, labels):
        """Return a copy with the items at indices (an integer index array
        in [0, n), or slice(None) for all) replaced; an index outside [0, n)
        is refused, since a negative index aliases another row. Only the replaced values
        are checked; the kept ones were."""
        idx = indices if isinstance(indices, slice) else _indices(indices)
        outside = None if isinstance(idx, slice) else idx[(idx < 0) | (idx >= self.n)]
        if outside is not None and outside.size:
            raise ValueError(f"item indices must lie in [0, {self.n}), got {outside.tolist()}")
        X = self._X.copy()
        y = self._y.copy()
        X[idx] = features
        y[idx] = labels
        _check_finite(features, labels)
        modified = Dataset.__new__(Dataset)
        modified._freeze(X, y)
        return modified


@dataclass(frozen=True)
class ModelParams:
    """A trained model: parameter vector theta and the dual mu of the norm
    constraint (zero when the constraint is absent or inactive). A stack of
    m models is one: theta is (m, d), mu one float or an (m,) array."""

    theta: np.ndarray
    mu: float = 0.0

    def __post_init__(self):
        rows = isinstance(self.mu, np.ndarray) and self.mu.ndim > 0
        object.__setattr__(self, "theta", _readonly(np.atleast_1d(self.theta)))
        object.__setattr__(self, "mu", _readonly(self.mu) if rows else float(self.mu))
        if self.theta.ndim > 2 or rows and self.mu.shape != self.theta.shape[:-1]:
            raise ValueError("theta must be (d,) or (m, d), and mu one float or (m,)")
        if (self.mu < 0).any() if rows else self.mu < 0:
            raise ValueError("mu must be nonnegative")

    @property
    def dim(self):
        return self.theta.shape[-1]


@dataclass(frozen=True)
class VictimSpec:
    """The private learner under attack.

    ``noise_scale`` is the radial scale of the noise-norm distribution. When
    left unset a conventional calibration is used: 2/epsilon for objective
    perturbation and 2/(n*lam*epsilon) for output perturbation. This tie
    between epsilon and the noise magnitude is a documented choice, not a
    consequence of the bound calculators, and can be overridden.
    """

    mechanism: Mechanism
    base: BaseLearner
    lam: Positive
    epsilon: Positive
    delta: Fraction = 0.0
    rho: Optional[Positive] = None
    noise_scale: Optional[Positive] = None

    def __post_init__(self):
        _check_fields(self)
        if self.base is BaseLearner.RIDGE and self.rho is None:
            raise ValueError("ridge victims require a positive model-space radius rho")
        if self.base is BaseLearner.LOGISTIC and self.rho is not None:
            raise ValueError("rho is the ridge victim's model-space radius: a logistic victim takes none")
        if self.noise_scale is None:
            self.noise_scale_for(1)  # fail at config load where n cannot help

    def noise_scale_for(self, n):
        """Radial noise scale for a training set of size n; ValueError if
        the calibration overflows to inf or underflows to 0."""
        if self.noise_scale is not None:
            return float(self.noise_scale)
        if self.mechanism is Mechanism.OBJECTIVE:
            scale = 2.0 / self.epsilon
        else:
            denominator = n * self.lam * self.epsilon
            scale = 2.0 / denominator if denominator > 0 else math.inf
        if not 0.0 < scale < math.inf:
            raise ValueError(f"noise scale must be finite and positive, got {scale} at n={n}")
        return scale


@dataclass(frozen=True)
class CostSpec:
    """The attack goal and the data needed to evaluate its cost.

    ``loss`` selects the pointwise loss used by the label goals: "logistic"
    for classification victims, "squared" for regression victims. ``cbar``
    is the uniform bound on |C| required by the approximate-privacy defense
    calculators; it is caller-supplied because unconstrained model spaces
    admit no universal bound.
    """

    goal: Goal
    target_model: Optional[ModelParams] = None
    eval_set: Optional[Dataset] = None
    loss: Literal["logistic", "squared"] = "logistic"
    cbar: Optional[Positive] = None

    def __post_init__(self):
        _check_fields(self)
        if self.goal is Goal.PARAMETER_TARGETING:
            if self.target_model is None:
                raise ValueError("parameter targeting requires a target model")
        else:
            if self.eval_set is None or len(self.eval_set) == 0:
                raise ValueError(f"{self.goal.value} requires a nonempty evaluation set")

    @property
    def sign(self):
        if self.goal is Goal.LABEL_AVERSION:
            return Sign.NON_POSITIVE
        return Sign.NON_NEGATIVE

    @property
    def dim(self):
        if self.goal is Goal.PARAMETER_TARGETING:
            return self.target_model.dim
        return self.eval_set.dim


def eval_cost(cost, model):
    """Evaluate the attack cost of a model.

    Parameter targeting returns half the squared distance to the target
    model. Label targeting returns the mean loss on the evaluation set;
    label aversion returns its negation.

    model is one model, which returns a float, or a stack of m, which
    returns an (m,) array: the stack is evaluated by one matrix product
    over the evaluation set.
    """
    single = model.theta.ndim == 1
    theta = np.atleast_2d(model.theta)
    if theta.shape[1] != cost.dim:
        raise ValueError(f"dimension mismatch: cost is {cost.dim}d, model is {theta.shape[1]}d")
    if cost.goal is Goal.PARAMETER_TARGETING:
        diff = theta - cost.target_model.theta
        # one dot product per row, summed as a single model's diff @ diff
        values = 0.5 * (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
    else:
        # (m, n): one row of predictions per model, so each row's mean is
        # summed in the same order as a single model's
        z = theta @ cost.eval_set.X.T
        if cost.loss == "logistic":
            z *= -cost.eval_set.y
            values = np.mean(softplus(z), axis=1)
        else:
            z -= cost.eval_set.y
            values = np.mean(0.5 * z * z, axis=1)
        if cost.goal is Goal.LABEL_AVERSION:
            values = -values
    return float(values[0]) if single else values


# rescaling x/||x|| can itself round a couple ulps past 1; treating such
# norms as feasible keeps the projection exactly idempotent
_NORM_SLACK = 4.0 * np.finfo(float).eps


def project_rows_inplace(X, y):
    """Project items onto the feasible set, in place: rows of X with norm
    above 1 are rescaled radially (direction preserved) and y is clipped
    into [-1, 1]. Feasible rows are left bit for bit unchanged, so the
    projection is idempotent.

    Used by the attack loops after each step.
    """
    # np.linalg.norm at a third of the cost: the same bits at d <= 2, the last bit above
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    over = norms > 1.0 + _NORM_SLACK
    if np.any(over):
        X[over] /= norms[over, None]
    np.clip(y, -1.0, 1.0, out=y)


def modification_distances(X_pois, y_pois, X_clean, y_clean):
    """Distance between each poisoned item and its clean original, as an
    (n,) array: half the squared displacement of features and label
    (a logistic victim's labels never move, so theirs is zero).
    """
    dx = np.asarray(X_pois, dtype=float) - np.asarray(X_clean, dtype=float)
    dy = np.asarray(y_pois, dtype=float) - np.asarray(y_clean, dtype=float)
    return 0.5 * np.einsum("ij,ij->i", dx, dx) + 0.5 * dy * dy
