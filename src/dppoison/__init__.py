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

from . import attacks, bounds, core, gradients, learners
from .attacks import *  # noqa: F403
from .bounds import *  # noqa: F403
from .core import *  # noqa: F403
from .gradients import *  # noqa: F403
from .learners import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*attacks.__all__, *bounds.__all__, *core.__all__, *gradients.__all__, *learners.__all__, "__version__"]
