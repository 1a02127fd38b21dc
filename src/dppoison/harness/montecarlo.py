"""Monte Carlo estimation of the expected attack cost under mechanism noise."""

from dataclasses import dataclass, field

import numpy as np

from ..core import eval_cost
from ..learners import sample_noise, train_mechanism
from ..rng import substreams

# Nothing here calls substream, but perfbench/tracer.py rebinds it in this
# module, so the name stays.
from ..rng import substream  # noqa: F401

__all__ = ["CostEstimate", "estimate_attack_cost"]

# Draws per train_mechanism and eval_cost call. A block's batched solve
# holds (rows, n) work arrays and one model per row, so the block size, not
# T_e, sets the peak memory of an estimate.
_BLOCK = 32


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

    Sample s always uses the dedicated stream substream(seed, s), which
    rng.substreams derives, and a cold solver start. Draws are trained and
    evaluated in blocks of _BLOCK rows, one train_mechanism and one
    eval_cost call per block; the last block is padded with zero rows whose
    results are dropped. Every block has the same shape, so draw s depends
    only on (seed, s): the first m values of a larger estimate equal those
    of a T_e=m one bit for bit.
    """
    if T_e < 2:
        raise ValueError("T_e must be at least 2 for a standard error")
    scale = victim.noise_scale_for(data.n)
    samples = np.empty(T_e)
    streams = substreams(seed, T_e)
    for lo in range(0, T_e, _BLOCK):
        draws = range(lo, min(lo + _BLOCK, T_e))
        noise = np.zeros((_BLOCK, data.dim))
        for row in range(len(draws)):
            noise[row] = sample_noise(data.dim, scale, next(streams))
        values = eval_cost(cost, train_mechanism(victim, data, noise))
        samples[lo : draws.stop] = values[: len(draws)]
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(T_e))
    return CostEstimate(mean, stderr, T_e, samples)
