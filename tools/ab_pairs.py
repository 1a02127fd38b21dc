"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed S] [--tiny]

Each pair runs ``perfbench/worker.py`` once from each checkout, in a fresh
process with one BLAS/OpenMP thread, both pinned to the same CPU, writing
under a temporary directory. The first pair runs the parent first, the
next the change first, and so on. For each end-to-end metric the script
prints both sides' median and interquartile range (IQR), the pairs the
change won (lower is better; ties count for neither side), and whether the
gain gate holds: the change wins at least 9 in 10 pairs and the medians
differ by more than the parent's IQR. The gate needs at least 10 pairs
and reads ``n/a`` with fewer. It then says whether every pair wrote
byte-identical CSVs and, for each CSV that differed in some pair, the
largest relative cell change over the pairs, by the rule of
``tools/csvdiff.py`` that ``tests/test_golden.py`` applies. The worker
rejects an unknown workload. The exit status is 1 if any run reported an
error or any pair's CSVs differ.
"""

import argparse
import filecmp
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

import csvdiff

METRICS = ("setup_s", "run_s", "peak_rss_mb")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_GATE_PAIRS = 10


def run_worker(checkout, workload, seed, out_dir, tiny, cpu):
    """One worker run of a checkout; returns its result dict."""
    command = [sys.executable, os.path.join(checkout, "perfbench", "worker.py")]
    command += ["--workload", workload, "--seed", str(seed), "--out", out_dir]
    if tiny:
        command.append("--tiny")
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        command,
        env=env,
        capture_output=True,
        text=True,
        check=False,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: worker failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def csv_changes(dir_a, dir_b):
    """{file: (largest relative change, (row, column))} for every CSV file
    that is not byte-identical in both directories; a file that only one
    of them holds changes by inf. Empty when all CSVs are the same."""
    names_a = {n for n in os.listdir(dir_a) if n.endswith(".csv")}
    names_b = {n for n in os.listdir(dir_b) if n.endswith(".csv")}
    changes = {name: (math.inf, None) for name in names_a ^ names_b}
    shared = sorted(names_a & names_b)
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, shared, shallow=False)
    for name in mismatch + errors:
        changes[name] = csvdiff.largest_change(os.path.join(dir_a, name), os.path.join(dir_b, name))
    return changes


def change_lines(changes):
    """One line per file from csv_changes, largest change first."""
    lines = []
    for name, (worst, cell) in sorted(changes.items(), key=lambda item: -item[1][0]):
        where = "" if cell is None else f" at row {cell[0]}, column {cell[1]}"
        lines.append(f"{name}: largest relative change {worst:.3g}{where}")
    return lines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent, change):
    """Per-metric lines from lists of parent and change result dicts."""
    lines = [f"{'metric':<12} {'parent median [IQR]':>22} {'change median [IQR]':>22} {'ratio':>6} {'won':>6} gate"]
    for metric in METRICS:
        a = [r[metric] for r in parent]
        b = [r[metric] for r in change]
        ma, mb = statistics.median(a), statistics.median(b)
        qa, qb = quartiles(a), quartiles(b)
        won = sum(y < x for x, y in zip(a, b))
        iqr = qa[1] - qa[0]
        if len(a) < MIN_GATE_PAIRS:
            gate = "n/a"
        else:
            gate = "yes" if won >= 0.9 * len(a) and ma - mb > iqr else "no"
        lines.append(
            f"{metric:<12} {ma:>12.4f} [{iqr:7.4f}] {mb:>12.4f} [{qb[1] - qb[0]:7.4f}] "
            f"{mb / ma:>6.3f} {won:>2}/{len(a):<3} {gate}"
        )
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tiny", action="store_true", help="run the workload's smoke-test scale")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    cpu = max(os.sched_getaffinity(0))
    results = {"parent": [], "change": []}
    identical = errors = 0
    changes = {}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = os.path.join(tmp, f"{i}_{side}")
                result = run_worker(getattr(args, side), args.workload, args.seed, out, args.tiny, cpu)
                errors += result.get("error") is not None
                results[side].append(result)
            pair_changes = csv_changes(os.path.join(tmp, f"{i}_parent"), os.path.join(tmp, f"{i}_change"))
            identical += not pair_changes
            for name, change in pair_changes.items():
                if name not in changes or change[0] > changes[name][0]:
                    changes[name] = change
            print(
                f"pair {i + 1}: run_s parent {results['parent'][-1]['run_s']:.4f} "
                f"change {results['change'][-1]['run_s']:.4f} ({order[0]} first)",
                file=sys.stderr,
            )
    print(f"{args.workload} seed {args.seed}{' tiny' if args.tiny else ''}: {args.pairs} pairs, CPU {cpu}")
    print("\n".join(summarize(results["parent"], results["change"])))
    print(f"CSVs byte-identical in {identical} of {args.pairs} pairs")
    for line in change_lines(changes):
        print(line)
    print(f"runs with an error: {errors}")
    return int(errors > 0 or identical < args.pairs)


if __name__ == "__main__":
    sys.exit(main())
