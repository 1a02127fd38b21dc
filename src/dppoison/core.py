"""Domain types and attack cost functions.

Defines the dataset container, trained-model parameters, the victim
description (privacy mechanism, base learner, hyperparameters), the
attack-goal description with its three cost functions, the projection of
items onto the feasible set, and the modification distance used by deep
selection.
"""

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
    """Numerically stable log(1 + exp(t))."""
    return np.logaddexp(0.0, np.asarray(t, dtype=float))


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


class Dataset:
    """Ordered, immutable collection of items sharing one feature dimension.

    Item indices are stable: selection and poisoning refer to items by
    their position in the original dataset.
    """

    __slots__ = ("_X", "_y")

    def __init__(self, features, labels):
        X = np.array(features, dtype=float)
        y = np.array(labels, dtype=float)
        if X.ndim != 2:
            raise ValueError("features must be a 2d array (n items by d features)")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be a vector with one entry per item")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("features and labels must be finite")
        X.setflags(write=False)
        y.setflags(write=False)
        self._X = X
        self._y = y

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

    def with_modified(self, indices, features, labels=None):
        """Return a copy with the given items' coordinates replaced."""
        X = self._X.copy()
        y = self._y.copy()
        idx = np.asarray(indices, dtype=int)
        X[idx] = features
        if labels is not None:
            y[idx] = labels
        return Dataset(X, y)


@dataclass(frozen=True)
class ModelParams:
    """A trained model: parameter vector theta and the dual mu of the norm
    constraint (zero when the constraint is absent or inactive)."""

    theta: np.ndarray
    mu: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", _readonly(np.atleast_1d(self.theta)))
        object.__setattr__(self, "mu", float(self.mu))
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")

    @property
    def dim(self):
        return self.theta.shape[0]


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
    lam: float
    epsilon: float
    delta: float = 0.0
    rho: Optional[float] = None
    noise_scale: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "mechanism", Mechanism(self.mechanism))
        object.__setattr__(self, "base", BaseLearner(self.base))
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        if self.base is BaseLearner.RIDGE:
            if self.rho is None or self.rho <= 0:
                raise ValueError("ridge victims require a positive model-space radius rho")
        if self.noise_scale is not None and self.noise_scale <= 0:
            raise ValueError("noise_scale must be positive when given")

    def noise_scale_for(self, n):
        """Radial noise scale for a training set of size n."""
        if self.noise_scale is not None:
            return float(self.noise_scale)
        if self.mechanism is Mechanism.OBJECTIVE:
            return 2.0 / self.epsilon
        return 2.0 / (n * self.lam * self.epsilon)


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
    loss: str = "logistic"
    cbar: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "goal", Goal(self.goal))
        if self.loss not in ("logistic", "squared"):
            raise ValueError("loss must be 'logistic' or 'squared'")
        if self.goal is Goal.PARAMETER_TARGETING:
            if self.target_model is None:
                raise ValueError("parameter targeting requires a target model")
        else:
            if self.eval_set is None or len(self.eval_set) == 0:
                raise ValueError(f"{self.goal.value} requires a nonempty evaluation set")
        if self.cbar is not None and self.cbar <= 0:
            raise ValueError("cbar must be positive when given")

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


def _mean_eval_loss(cost, theta):
    X = cost.eval_set.X
    y = cost.eval_set.y
    if cost.loss == "logistic":
        return float(np.mean(softplus(-y * (X @ theta))))
    r = X @ theta - y
    return float(np.mean(0.5 * r * r))


def eval_cost(cost, model):
    """Evaluate the attack cost of a model.

    Parameter targeting returns half the squared distance to the target
    model. Label targeting returns the mean loss on the evaluation set;
    label aversion returns its negation.
    """
    if cost.dim != model.dim:
        raise ValueError(f"dimension mismatch: cost is {cost.dim}d, model is {model.dim}d")
    theta = model.theta
    if cost.goal is Goal.PARAMETER_TARGETING:
        diff = theta - cost.target_model.theta
        return float(0.5 * (diff @ diff))
    value = _mean_eval_loss(cost, theta)
    if cost.goal is Goal.LABEL_AVERSION:
        return -value
    return value


# rescaling x/||x|| can itself round a couple ulps past 1; treating such
# norms as feasible keeps the projection exactly idempotent
_NORM_SLACK = 4.0 * np.finfo(float).eps


def project_rows_inplace(X, y=None):
    """Project items onto the feasible set, in place: rows of X with norm
    above 1 are rescaled radially (direction preserved) and y is clipped
    into [-1, 1]. Feasible rows are left bit for bit unchanged, so the
    projection is idempotent.

    Used by the attack loops after each step.
    """
    norms = np.linalg.norm(X, axis=1)
    over = norms > 1.0 + _NORM_SLACK
    if np.any(over):
        X[over] /= norms[over, None]
    if y is not None:
        np.clip(y, -1.0, 1.0, out=y)


def modification_distances(X_pois, y_pois, X_clean, y_clean, base):
    """Distance between each poisoned item and its clean original, as an
    (n,) array.

    Half the squared feature displacement; for ridge the squared label
    displacement is included as well (logistic labels are never modified).
    """
    dx = np.asarray(X_pois, dtype=float) - np.asarray(X_clean, dtype=float)
    r = 0.5 * np.einsum("ij,ij->i", dx, dx)
    if BaseLearner(base) is BaseLearner.RIDGE:
        dy = np.asarray(y_pois, dtype=float) - np.asarray(y_clean, dtype=float)
        r = r + 0.5 * dy * dy
    return r
