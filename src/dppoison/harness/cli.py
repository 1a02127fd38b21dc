"""Command-line front end.

Subcommands:
  gen-data   materialize a config's dataset (and evaluation set) to CSV
  bound      print the resistance bound and poisoning-budget threshold
  attack     run one poisoning experiment from a config
  sweep      run the config's sweep over k or epsilon
  evaluate   estimate the clean cost J(D) and its bound, no attack

Global flags: --seed (overrides the config seed), --config, --out.
Relative file paths inside a config resolve against the config file's
directory.

Run as the installed ``dppoison`` script or, from a source checkout, as
``python -m dppoison.harness.cli`` with ``src`` on the path.
"""

import argparse
import json
import math
import os
import sys

import yaml

from ..bounds import BoundQuery, lower_bound, min_items
from ..core import Sign
from .experiment import (
    config_from_dict,
    run_evaluation,
    run_experiment,
    write_dataset_files,
)

__all__ = ["load_config", "main"]


def load_config(path, seed=None):
    """Parse a YAML experiment config; an explicit seed wins over the file."""
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping")
    if seed is not None:
        raw["seed"] = seed
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def _require(args, *names):
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise SystemExit(f"{args.command}: missing required {', '.join(missing)}")


def _report(summary):
    line = {
        "out": summary["out_dir"],
        "runtime_seconds": round(summary["runtime_seconds"], 3),
    }
    if summary.get("lower_bound") is not None:
        line["lower_bound"] = summary["lower_bound"]
    final = summary.get("final_cost")
    if final:
        line["final_mean"] = final["mean"]
        line["final_stderr"] = final["stderr"]
    clean = summary.get("clean_cost")
    if clean:
        line["clean_mean"] = clean["mean"]
    if summary.get("error"):
        line["error"] = summary["error"]
    print(json.dumps(line, sort_keys=True))
    return 1 if summary.get("error") else 0


def _cmd_gen_data(args):
    _require(args, "config", "out")
    written = write_dataset_files(load_config(args.config, args.seed), args.out)
    for name in sorted(written):
        print(f"{name}: {written[name]}")
    return 0


def _cmd_bound(args):
    query = BoundQuery(
        j_clean=args.j,
        epsilon=args.epsilon,
        k=args.k,
        delta=args.delta,
        cbar=args.cbar,
        sign=args.sign,
        tau=args.tau if args.tau is not None else 1.0,
    )
    result = {"lower_bound": lower_bound(query)}
    if args.tau is not None:
        result["min_items"] = min_items(query)
    # JSON has no infinity: write non-finite values as strings ("inf", "-inf").
    result = {key: v if math.isfinite(v) else str(v) for key, v in result.items()}
    print(json.dumps(result, sort_keys=True, allow_nan=False))
    return 0


def _cmd_run(args):
    _require(args, "config", "out")
    config = load_config(args.config, args.seed)
    if args.command == "sweep" and config.sweep is None:
        raise SystemExit("config has no sweep section; use the attack subcommand")
    if args.command != "sweep" and config.sweep is not None:
        raise SystemExit("config contains a sweep section; use the sweep subcommand")
    run = run_evaluation if args.command == "evaluate" else run_experiment
    return _report(run(config, args.out))


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--config", default=None, help="experiment config file (YAML)")
    common.add_argument("--out", default=None, help="output directory")

    parser = argparse.ArgumentParser(
        prog="dppoison",
        description="Poisoning attacks and resistance bounds for private learners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[common], help="write the config's datasets to CSV")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("bound", parents=[common], help="print bound values for given parameters")
    p.add_argument("--j", type=float, required=True, help="clean attack cost J(D)")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k", type=int, default=0, help="number of poisoned items")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--cbar", type=float, default=None, help="uniform bound on |C|")
    p.add_argument(
        "--sign",
        choices=[s.value for s in Sign],
        default=Sign.NON_NEGATIVE.value,
        help="sign class of the cost",
    )
    p.add_argument("--tau", type=float, default=None, help="target cost ratio for min_items")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("attack", parents=[common], help="run one experiment")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", parents=[common], help="run the config's k or epsilon sweep")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("evaluate", parents=[common], help="estimate the clean cost only")
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
