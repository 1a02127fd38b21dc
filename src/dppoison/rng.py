"""Deterministic derivation of independent random streams.

Every randomized stage of the pipeline (data generation, selection, SGD
noise, Monte-Carlo evaluation, ...) owns a stream derived from the user
seed and a fixed stage key, so results are reproducible bit-for-bit and
independent of evaluation order.

A Monte-Carlo estimate's draw s uses substream(seed, s). substreams
derives those streams bit for bit without a SeedSequence per draw: numpy's
SeedSequence hash (numpy/random/bit_generator.pyx, fixed under numpy's
stream-compatibility policy) mixes the seed's four entropy words before
the spawn key s, so that part is numpy's own SeedSequence(seed).pool, and
each chunk of keys is mixed in, and its PCG64 seed words derived, in one
pass of uint32 array arithmetic.
"""

import functools

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

# SeedSequence's hash constants and pool size. Every constant is below
# 2**32, so a uint32 array keeps its dtype when combined with one under both
# numpy 1 (value-based casting) and numpy 2 rules.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# The hash constant a spawn key meets, after the entropy phase's 4 + 12 hashes.
_KEY_CONST = _INIT_A * _MULT_A ** (_POOL * _POOL) & _MASK32
# Spawn keys hashed per array pass. A pass costs about 160 us whatever its
# length (some 90 small array operations), so 256 keys bring that under
# 1 us a key, while a chunk's arrays stay at a few kilobytes.
_CHUNK = 256


def _entropy(seed):
    # folding a seed into [0, 2**128), or truncating it, would replay another's streams
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < _ENTROPY_MOD:
        raise ValueError(f"seed must be in [0, 2**128), got {seed!r}")
    return int(seed)


def substream(seed, *key):
    """Return a Generator for stage ``key`` of the given seed."""
    ss = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def subseed(seed, *key):
    """Derive an integer seed for stage ``key``, usable as a new root seed."""
    ss = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(2, np.uint64)[0])


def _hashmix(value, const, mult):
    """SeedSequence's hash of one word (a Python int below 2**32 or a uint32
    array) under hash constant const; returns it and the next constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _pcg64_words(pool, keys):
    """generate_state(4, np.uint64) of SeedSequence(seed, spawn_key=(s,)) for
    each s of the uint32 array keys, as a (len(keys), 4) array, from
    SeedSequence(seed).pool: the pool after the entropy phase, the same for
    every s."""
    mixed, const = [], _KEY_CONST
    for word in pool:
        hashed, const = _hashmix(keys, const, _MULT_A)
        mixed.append(_mix(word, hashed))
    out, const = [], _INIT_B
    for i in range(2 * _POOL):
        word, const = _hashmix(mixed[i % _POOL], const, _MULT_B)
        out.append(word)
    return np.stack(out, axis=1).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_class():
    """An ISeedSequence that hands PCG64 its four seed words. Made on first
    use, so importing dppoison does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def substreams(seed, count):
    """Yield substream(seed, s) for s in range(count), bit for bit the same,
    one at a time and a chunk of keys per array pass."""
    if not 0 <= count < 1 << 32:  # a larger key is two SeedSequence words
        raise ValueError(f"count must be in [0, 2**32), got {count!r}")
    pool = np.random.SeedSequence(_entropy(seed)).pool.tolist()
    seed_words = _seed_words_class()

    def streams():
        for lo in range(0, count, _CHUNK):
            keys = np.arange(lo, min(lo + _CHUNK, count), dtype=np.uint32)
            for words in _pcg64_words(pool, keys):
                yield np.random.Generator(np.random.PCG64(seed_words(words)))

    return streams()
