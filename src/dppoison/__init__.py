"""Data-poisoning attacks on differentially private ERM learners.

The package has three layers:

* victims: regularized logistic regression and norm-constrained ridge
  regression, privatized by objective or output perturbation
  (:mod:`dppoison.learners`, :mod:`dppoison.core`);
* attacks: item selection and (stochastic) gradient descent on the
  poisoned items' coordinates, driven by implicit differentiation of the
  trained model (:mod:`dppoison.gradients`, :mod:`dppoison.attacks`);
* analysis: closed-form lower bounds on the achievable attack cost and
  the minimum poisoning budget, plus a Monte-Carlo experiment harness
  (:mod:`dppoison.bounds`, :mod:`dppoison.harness`).
"""

from .attacks import (
    AttackConfig,
    AttackMode,
    SelectionMethod,
    relaxed_attack,
    run_attack,
    deep_scores,
    shallow_scores,
    top_k_indices,
)
from .bounds import BoundQuery, lower_bound, min_items
from .core import (
    BaseLearner,
    CostSpec,
    Dataset,
    Goal,
    Mechanism,
    ModelParams,
    Sign,
    VictimSpec,
    eval_cost,
    modification_distances,
    project_rows_inplace,
    sigmoid,
    softplus,
)
from .gradients import (
    batch_item_gradients,
    cost_gradient,
    finite_difference_oracle,
)
from .learners import (
    SolverError,
    sample_noise,
    train_base_logistic,
    train_base_ridge_constrained,
    train_mechanism,
    train_objective_perturbed_logistic,
)
__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AttackMode",
    "BaseLearner",
    "BoundQuery",
    "CostSpec",
    "Dataset",
    "Goal",
    "Mechanism",
    "ModelParams",
    "SelectionMethod",
    "Sign",
    "SolverError",
    "VictimSpec",
    "batch_item_gradients",
    "cost_gradient",
    "eval_cost",
    "finite_difference_oracle",
    "lower_bound",
    "min_items",
    "modification_distances",
    "project_rows_inplace",
    "sigmoid",
    "softplus",
    "relaxed_attack",
    "run_attack",
    "sample_noise",
    "deep_scores",
    "shallow_scores",
    "top_k_indices",
    "train_base_logistic",
    "train_base_ridge_constrained",
    "train_mechanism",
    "train_objective_perturbed_logistic",
    "__version__",
]
