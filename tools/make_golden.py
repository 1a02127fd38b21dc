"""Write the reduced-scale golden outputs that tests/test_golden.py checks.

    PYTHONPATH=src python3 tools/make_golden.py [OUT_DIR]

Every ``configs/*.yaml`` runs at the reduced scale set below, and its
``costs.csv`` (plus ``trace.csv`` for a config without a sweep) is
copied to ``OUT_DIR/<config name>/``. OUT_DIR defaults to
``tests/golden``. Regenerate the golden files only in a change that
moves outputs on purpose, and list the moved cells with it: for each
config the script prints, to stderr, the largest moved cell of each file
against the one it replaces (``csvdiff.largest_change``), or
"unchanged".
"""

import dataclasses
import glob
import os
import shutil
import sys
import tempfile

import csvdiff
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


def moved(old_dir, new_dir, written):
    """What moved from the golden files in old_dir to the files written
    to new_dir: one "file: largest relative change x at row r, column c"
    entry per file whose bytes differ (csvdiff.largest_change), or "file:
    only in the old files" (or "new"), joined by "; "; else "unchanged"."""
    old_files = os.listdir(old_dir) if os.path.isdir(old_dir) else []
    entries = []
    for file in sorted(set(written) | set(old_files)):
        old, new = os.path.join(old_dir, file), os.path.join(new_dir, file)
        if file not in written or file not in old_files:
            entries.append(f"{file}: only in the {'new' if file in written else 'old'} files")
            continue
        with open(old, "rb") as fa, open(new, "rb") as fb:
            if fa.read() == fb.read():
                continue
        worst, cell = csvdiff.largest_change(old, new)
        where = "no cell" if cell is None else f"row {cell[0]}, column {cell[1]}"
        entries.append(f"{file}: largest relative change {worst:.3g} at {where}")
    return "; ".join(entries) or "unchanged"


def main(argv):
    if argv and argv[0].startswith("-"):
        raise SystemExit(__doc__)
    golden = argv[0] if argv else GOLDEN_DIR
    with tempfile.TemporaryDirectory() as scratch:
        for path in config_paths():
            name = os.path.splitext(os.path.basename(path))[0]
            run_dir = os.path.join(scratch, name)
            dest = os.path.join(golden, name)
            written = run_reduced(path, run_dir)
            print(f"{name}: {moved(dest, run_dir, written)}", file=sys.stderr)
            shutil.rmtree(dest, ignore_errors=True)
            os.makedirs(dest)
            for file in written:
                shutil.copyfile(os.path.join(run_dir, file), os.path.join(dest, file))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
