"""Write the reduced-scale golden outputs that tests/test_golden.py checks.

    PYTHONPATH=src python3 tools/make_golden.py [OUT_DIR]

Every ``configs/*.yaml`` runs at the reduced scale set below, and its
``costs.csv`` (plus ``trace.csv`` for a config without a sweep) is
copied to ``OUT_DIR/<config name>/``. OUT_DIR defaults to
``tests/golden``. Regenerate the golden files only in a change that
moves outputs on purpose, and list the moved cells with it.
"""

import dataclasses
import glob
import os
import shutil
import sys
import tempfile

from dppoison.harness import cli, experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

# The reduced scale: SGD steps, Monte-Carlo draws per estimate, curve
# points and the cap on shallow-selection draws.
T = 50
T_EVAL = 64
CURVE_POINTS = 5
M_SELECT = 50

OUTPUT_FILES = ("costs.csv", "trace.csv")


def config_paths():
    return sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))


def reduced(config):
    """config at the reduced scale."""
    attack = dataclasses.replace(
        config.attack, T=T, T_eval=T_EVAL, m_select=min(config.attack.m_select, M_SELECT)
    )
    return dataclasses.replace(config, attack=attack, curve_points=CURVE_POINTS)


def run_reduced(path, out_dir):
    """Run the config at path at the reduced scale into out_dir; returns
    the output file names it wrote, of OUTPUT_FILES."""
    experiment.run_experiment(reduced(cli.load_config(path)), out_dir)
    return [name for name in OUTPUT_FILES if os.path.exists(os.path.join(out_dir, name))]


def main(argv):
    if argv and argv[0].startswith("-"):
        raise SystemExit(__doc__)
    golden = argv[0] if argv else GOLDEN_DIR
    with tempfile.TemporaryDirectory() as scratch:
        for path in config_paths():
            name = os.path.splitext(os.path.basename(path))[0]
            run_dir = os.path.join(scratch, name)
            dest = os.path.join(golden, name)
            shutil.rmtree(dest, ignore_errors=True)
            os.makedirs(dest)
            for file in run_reduced(path, run_dir):
                shutil.copyfile(os.path.join(run_dir, file), os.path.join(dest, file))
            print(f"{name}: {sorted(os.listdir(dest))}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
