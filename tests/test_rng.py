"""rng.substreams derives the streams of rng.substream, bit for bit."""

import os
import subprocess
import sys

import pytest

from dppoison.rng import STAGE_CURVE, STAGE_MC_CLEAN, STAGE_SWEEP, _CHUNK, subseed, substream, substreams

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the four entropy words at their edges, and seeds as the harness makes them
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**127 + 5, 2**128 - 1]
SEEDS += [subseed(7, STAGE_MC_CLEAN), subseed(7, STAGE_CURVE, 20), subseed(2**128 - 1, STAGE_SWEEP, 3)]
# no stream, one, around a block of 32 draws and around one chunk of keys
COUNTS = [0, 1, 31, 32, 33, _CHUNK - 1, _CHUNK, _CHUNK + 1, 1000]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_each_stream_is_substream(seed, count):
    streams = list(substreams(seed, count))
    assert len(streams) == count
    for s, rng in enumerate(streams):
        reference = substream(seed, s)
        assert rng.gamma(3.0) == reference.gamma(3.0)
        assert (rng.standard_normal(5) == reference.standard_normal(5)).all()
        assert rng.random() == reference.random()


@pytest.mark.parametrize("count", [-1, 2**32, 2**64])
def test_count_outside_one_key_word_is_refused_at_the_call(count):
    # the check runs before any stream is derived, not on the first draw
    with pytest.raises(ValueError, match=r"^count must be in \[0, 2\*\*32\)"):
        substreams(0, count)


def test_importing_the_package_leaves_numpy_random_unloaded():
    # substreams makes its ISeedSequence class on first use, so importing
    # dppoison does not pay for numpy.random
    code = "import sys, dppoison, dppoison.harness; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
