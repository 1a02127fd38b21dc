"""Monte Carlo estimation of the expected attack cost under mechanism noise."""

from dataclasses import dataclass, field

import numpy as np

from ..core import eval_cost
from ..learners import sample_noise, train_mechanism
from ..rng import substream

__all__ = ["CostEstimate", "estimate_attack_cost"]


@dataclass(frozen=True)
class CostEstimate:
    """Sample mean and standard error of the cost over noise draws.

    ``samples`` is the draw count; ``values`` keeps the raw per-draw costs
    for diagnostics.
    """

    mean: float
    stderr: float
    samples: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def estimate_attack_cost(victim, data, cost, T_e, seed):
    """Estimate E_b[C(M(data, b))] from T_e independent noise draws.

    Sample s always uses the dedicated stream substream(seed, s) and a cold
    solver start, so draw s depends only on (seed, s): the first m values
    of a larger estimate equal those of a T_e=m one bit for bit.
    """
    if T_e < 2:
        raise ValueError("T_e must be at least 2 for a standard error")
    scale = victim.noise_scale_for(data.n)
    samples = np.empty(T_e)
    for s in range(T_e):
        b = sample_noise(data.dim, scale, substream(seed, s))
        samples[s] = eval_cost(cost, train_mechanism(victim, data, b))
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(T_e))
    return CostEstimate(mean, stderr, T_e, samples)
