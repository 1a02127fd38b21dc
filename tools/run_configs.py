"""Run experiment configs through the CLI, one output directory each.

    PYTHONPATH=src python3 tools/run_configs.py OUT_DIR [CONFIG ...]

Each config (by default every ``configs/*.yaml``) runs as
``dppoison sweep`` if it has a sweep section and as ``dppoison attack``
otherwise, writing to ``OUT_DIR/<config name>``. The script imports
whichever ``dppoison`` is on ``PYTHONPATH``, so running it once with the
``src`` of a reference checkout and once with this one, then

    diff -r -x summary.json REF_OUT OUT_DIR

checks that a change keeps every config's ``costs.csv`` and ``trace.csv``
byte for byte. The exit status is 1 if any run reported an error.
"""

import glob
import os
import sys

import dppoison
from dppoison.harness import cli

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


def main(argv):
    if not argv or argv[0].startswith("-"):
        raise SystemExit(__doc__)
    out_dir, configs = argv[0], argv[1:] or sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    print(f"dppoison from {os.path.dirname(dppoison.__file__)}", file=sys.stderr)
    status = 0
    for path in configs:
        name = os.path.splitext(os.path.basename(path))[0]
        command = "attack" if cli.load_config(path).sweep is None else "sweep"
        print(f"{name}: {command}", file=sys.stderr)
        code = cli.main([command, "--config", path, "--out", os.path.join(out_dir, name)])
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
