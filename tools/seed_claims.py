"""Do the paper's sweep claims hold beyond seed 1? Criteria 7 and 9 over config seeds.

    PYTHONPATH=src python3 tools/seed_claims.py N [--scale T T_EVAL]

Runs the three ``sweep_k_2d_*`` configs and ``sweep_eps_2d_targeting``
for each config seed 1..N, at the scale ``tests/test_acceptance.py`` runs
them (T = 500, T_eval = 200, unless ``--scale`` says otherwise), and
checks each run by the rules the acceptance tests apply, which are
defined here and imported by them:

* criterion 7, on each k sweep: the attack cost is non-increasing in k;
* criterion 9, on the epsilon sweep: the gap between the attack cost and
  its lower bound is non-increasing in epsilon;

each within 2 * hypot(stderr) of the two rows per step
(``monotone_within_noise``). A run whose summary records an error fails.
The script prints one line per seed with each run's worst step excess
(the largest ``mean_b - mean_a - slack``; positive fails), then each
criterion's pass count over its (config, seed) runs with a 95%
Clopper-Pearson interval, and the runs that failed. It uses whichever
``dppoison`` is on ``PYTHONPATH`` and writes its runs under a temporary
directory. The exit status is 0 whatever the counts: the counts are the
result.
"""

import argparse
import csv
import dataclasses
import math
import os
import sys
import tempfile

import numpy as np

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
BUDGET_CONFIGS = ("sweep_k_2d_aversion", "sweep_k_2d_targeting", "sweep_k_2d_param")
EPSILON_CONFIGS = ("sweep_eps_2d_targeting",)


def monotone_within_noise(steps):
    """(ok, worst) for steps, a list of (value, stderr) pairs: whether the
    value is non-increasing along the list within 2 * hypot(stderr) per
    step, and the largest step excess value_b - value_a - slack (-inf for
    fewer than two steps)."""
    worst = -math.inf
    for (va, sa), (vb, sb) in zip(steps, steps[1:]):
        worst = max(worst, vb - va - 2.0 * float(np.hypot(sa, sb)))
    return not worst > 0, worst


def budget_steps(rows):
    """Criterion 7's steps of a k sweep's costs.csv rows (k, mean, stderr,
    lower_bound): the attack cost."""
    return [(mean, stderr) for _, mean, stderr, _ in rows]


def gap_steps(rows):
    """Criterion 9's steps of an epsilon sweep's costs.csv rows (epsilon,
    mean, stderr, lower_bound): the gap between the attack cost and its
    bound, whose uncertainty is the cost's."""
    return [(mean - bound, stderr) for _, mean, stderr, bound in rows]


CRITERIA = (
    (7, "attack cost non-increasing in k", BUDGET_CONFIGS, budget_steps),
    (9, "gap to the bound non-increasing in epsilon", EPSILON_CONFIGS, gap_steps),
)


def clopper_pearson(passed, runs, level=0.95):
    """The exact two-sided binomial interval for the pass rate, by bisection
    on the binomial tails."""

    def tail_at_least(k, p):  # P(X >= k), X ~ Binomial(runs, p)
        return sum(math.comb(runs, i) * p**i * (1.0 - p) ** (runs - i) for i in range(k, runs + 1))

    def solve(f, target, increasing):
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if (f(mid) < target) == increasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    alpha = 1.0 - level
    lower = 0.0 if passed == 0 else solve(lambda p: tail_at_least(passed, p), alpha / 2, True)
    upper = 1.0 if passed == runs else solve(lambda p: 1.0 - tail_at_least(passed + 1, p), alpha / 2, False)
    return lower, upper


def run_worst(name, seed, T, T_eval, steps, out_root):
    """(ok, worst excess) of one config run at seed and scale (T, T_eval);
    a run that records an error fails, with worst excess nan."""
    from dppoison.harness import cli, run_experiment

    config = cli.load_config(os.path.join(CONFIG_DIR, f"{name}.yaml"), seed)
    config = dataclasses.replace(config, attack=dataclasses.replace(config.attack, T=T, T_eval=T_eval))
    out = os.path.join(out_root, f"{name}-{seed}")
    if run_experiment(config, out)["error"] is not None:
        return False, math.nan
    with open(os.path.join(out, "costs.csv"), encoding="utf-8", newline="") as fh:
        rows = [[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]]
    return monotone_within_noise(steps(rows))


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("seeds", type=int, help="check config seeds 1..N")
    p.add_argument("--scale", type=int, nargs=2, default=(500, 200), metavar=("T", "T_EVAL"))
    args = p.parse_args(argv)
    T, T_eval = args.scale
    names = [name for _, _, configs, _ in CRITERIA for name in configs]
    results = {}  # (name, seed) -> (ok, worst)
    print(f"worst step excess per run at T={T}, T_eval={T_eval} (positive fails)")
    print("seed  " + "  ".join(names))
    with tempfile.TemporaryDirectory() as out_root:
        for seed in range(1, args.seeds + 1):
            for _, _, configs, steps in CRITERIA:
                for name in configs:
                    results[name, seed] = run_worst(name, seed, T, T_eval, steps, out_root)
            cells = "  ".join(f"{results[name, seed][1]:>+{len(name)}.4f}" for name in names)
            print(f"{seed:4d}  {cells}", flush=True)
    for number, title, configs, _ in CRITERIA:
        runs = [(name, seed) for seed in range(1, args.seeds + 1) for name in configs]
        failed = [
            f"{name} seed {seed} ({results[name, seed][1]:+.4f})"
            for name, seed in runs if not results[name, seed][0]
        ]
        lower, upper = clopper_pearson(len(runs) - len(failed), len(runs))
        print(
            f"criterion {number} ({title}): {len(runs) - len(failed)}/{len(runs)} pass, "
            f"95% CI [{lower:.3f}, {upper:.3f}]; failed: {', '.join(failed) or 'none'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
