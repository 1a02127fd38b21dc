"""Deterministic derivation of independent random streams.

Every randomized stage of the pipeline (data generation, selection, SGD
noise, Monte-Carlo evaluation, ...) owns a stream derived from the user
seed and a fixed stage key, so results are reproducible bit-for-bit and
independent of evaluation order.
"""

import numpy as np

# Stage keys. Keep values stable: they are part of the reproducibility
# contract (a given seed + config must always replay the same streams).
STAGE_DATA = 0
STAGE_EVALSET = 1
STAGE_SELECT = 2
STAGE_SGD = 3
STAGE_MC_CLEAN = 4
STAGE_MC_POISONED = 5
STAGE_CURVE = 6
STAGE_SWEEP = 7
STAGE_FIXTURE = 8

_ENTROPY_MOD = 1 << 128


def _entropy(seed):
    # SeedSequence wants a nonnegative integer; fold negatives in a fixed way.
    return int(seed) % _ENTROPY_MOD


def substream(seed, *key):
    """Return a Generator for stage ``key`` of the given seed."""
    ss = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def subseed(seed, *key):
    """Derive an integer seed for stage ``key``, usable as a new root seed."""
    ss = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(2, np.uint64)[0])
