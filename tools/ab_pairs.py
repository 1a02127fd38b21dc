"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed S] [--tiny]
    python3 tools/ab_pairs.py PARENT_DIR --aa --workload W --pairs N [--seed S] [--tiny]

Each checkout's ``src/``, ``perfbench/`` and ``data/`` are first copied into
two temporary directories whose paths have the same length, so the
checkout's own path cannot read as a speed difference. Each pair runs
``perfbench/worker.py`` once from each copy, in a fresh process with one
BLAS/OpenMP thread, both pinned to the same CPU, writing under the
temporary directory. The first pair runs the parent first, the next the
change first, and so on; after every second pair the two copies swap
paths, so in each four pairs each side runs first and second from each
path once. The end-to-end metrics, the direction in which each is better
and the bound by which it may worsen are read from ``BENCHMARK.json``. For each metric the script prints both
sides' median and interquartile range (IQR), the pairs the change won
(ties count for neither side), whether the change is worse, and whether
the gain gate holds. The change is worse when its median is worse than
the parent's by more than the bound, relative to the parent's median;
the verdict reads ``unresolved`` when the parent's IQR exceeds the bound
by the same measure, unless every change run beats every parent run. The
gate holds when the change wins at least 9 in 10 pairs and the medians
differ by more than the parent's IQR; it needs at least 10 pairs and
reads ``n/a`` with fewer. It then says whether every pair wrote
byte-identical CSVs and, for each CSV that differed in some pair, the
largest relative cell change over the pairs, by the rule of
``tools/csvdiff.py`` that ``tests/test_golden.py`` applies. The worker
rejects an unknown workload. The exit status is 1 if any run reported an
error or any pair's CSVs differ.

With ``--aa`` (an A/A run) the change side is a second copy of the parent
checkout, run with the same alternation and path swaps, so each metric's
ratio and IQRs show the spread that identical code reads: a gain smaller
than it is noise.
"""

import argparse
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import csvdiff

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_GATE_PAIRS = 10
COPIED = ("src", "perfbench", "data")  # what a worker run reads of a checkout


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


def stage(checkouts, tmp):
    """Copy what a worker run reads of each side's checkout into tmp/a and
    tmp/b, paths of the same length; returns {side: path}."""
    homes = {}
    ignore = shutil.ignore_patterns("__pycache__")
    for (side, checkout), name in zip(checkouts.items(), "ab"):
        homes[side] = os.path.join(tmp, name)
        for part in COPIED:
            shutil.copytree(os.path.join(checkout, part), os.path.join(homes[side], part), ignore=ignore)
    return homes


def swap(homes):
    """Swap the two sides' copies between their paths."""
    (side_a, path_a), (side_b, path_b) = homes.items()
    os.rename(path_a, path_a + "~")
    os.rename(path_b, path_a)
    os.rename(path_a + "~", path_b)
    return {side_a: path_b, side_b: path_a}


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
    header = f"{'metric':<12} {'parent median [IQR]':>22} {'change median [IQR]':>22} {'ratio':>6} {'won':>6}"
    lines = [f"{header} {'worse':>10} gate"]
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1  # sign * (x - y) > 0: y beats x
        a = [r[name] for r in parent]
        b = [r[name] for r in change]
        ma, mb = statistics.median(a), statistics.median(b)
        qa, qb = quartiles(a), quartiles(b)
        won = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        iqr = qa[1] - qa[0]
        if all(sign * (x - y) > 0 for x in a for y in b):
            worse = "no"
        elif iqr > bound * abs(ma):
            worse = "unresolved"
        else:
            worse = "yes" if sign * (mb - ma) > bound * abs(ma) else "no"
        if len(a) < MIN_GATE_PAIRS:
            gate = "n/a"
        else:
            gate = "yes" if won >= 0.9 * len(a) and sign * (ma - mb) > iqr else "no"
        lines.append(
            f"{name:<12} {ma:>12.4f} [{iqr:7.4f}] {mb:>12.4f} [{qb[1] - qb[0]:7.4f}] "
            f"{mb / ma:>6.3f} {won:>2}/{len(a):<3} {worse:>10} {gate}"
        )
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", nargs="?", help="checkout of the change; omitted with --aa")
    p.add_argument("--aa", action="store_true", help="run the parent against a copy of itself")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tiny", action="store_true", help="run the workload's smoke-test scale")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.aa == (args.change is not None):
        p.error("give either a change checkout or --aa")
    cpu = max(os.sched_getaffinity(0))
    results = {"parent": [], "change": []}
    identical = errors = 0
    changes = {}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        homes = stage({"parent": args.parent, "change": args.parent if args.aa else args.change}, tmp)
        for i in range(args.pairs):
            if i > 0 and i % 2 == 0:
                homes = swap(homes)
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = os.path.join(tmp, f"{i}_{side}")
                result = run_worker(homes[side], args.workload, args.seed, out, args.tiny, cpu)
                errors += result.get("error") is not None
                results[side].append(result)
            pair_changes = csv_changes(os.path.join(tmp, f"{i}_parent"), os.path.join(tmp, f"{i}_change"))
            identical += not pair_changes
            for name, change in pair_changes.items():
                if name not in changes or change[0] > changes[name][0]:
                    changes[name] = change
            print(
                f"pair {i + 1}: run_s parent {results['parent'][-1]['run_s']:.4f} "
                f"change {results['change'][-1]['run_s']:.4f} ({order[0]} first, "
                f"parent in {os.path.basename(homes['parent'])})",
                file=sys.stderr,
            )
    print(f"{args.workload} seed {args.seed}{' tiny' if args.tiny else ''}: {args.pairs} pairs, CPU {cpu}")
    if args.aa:
        print("A/A: the change is a copy of the parent; each ratio is a null ratio, each IQR the null spread")
    print("\n".join(summarize(results["parent"], results["change"])))
    print(f"CSVs byte-identical in {identical} of {args.pairs} pairs")
    for line in change_lines(changes):
        print(line)
    print(f"runs with an error: {errors}")
    return int(errors > 0 or identical < args.pairs)


if __name__ == "__main__":
    sys.exit(main())
