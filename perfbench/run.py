"""dppoison benchmark: end-to-end and per-layer timing of three workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload evaluate-vertebral --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload run is a fresh ``worker.py`` process with BLAS/OpenMP pinned
to ``--blas-threads`` threads (1 by default, at most nproc), so set-up time
and peak memory are per run. Runs repeat until ``--seconds`` are used up;
every metric is the median over the runs. With ``--trace 0`` the runs are
untraced and give the end-to-end metrics (setup_s, run_s, peak_rss_mb).
With ``--trace 1`` untraced and traced runs alternate; the traced ones give
the per-layer metrics, and ``trace.overhead_s`` is the difference of the
two medians of run_s.

Every run's costs.csv is checked (see check.py), and every run's CSVs must
be byte-identical to those of the first untraced run at the same seed.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Outputs and spans go to
``.perfbench_out/`` under the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
from worker import WORKLOADS  # noqa: E402

OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
# Every invocation must end within 180 s; children are killed past this.
HARD_LIMIT_S = 170.0
MIN_UNTRACED_RUNS = 3
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A run could not produce a result."""


def unit_of(metric):
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("us_per_call"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def pin_blas_threads(threads):
    """Set the BLAS/OpenMP thread variables for this process and the runs it
    starts; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(threads)


def _pin_to_quietest_cpus(allowed, count):
    """Pin this process, and so the next child, to the ``count`` CPUs of
    ``allowed`` on which a short numpy kernel runs fastest right now.

    On a shared host one vCPU can run 1.6 times slower than another for
    seconds to minutes while the other stays fast (see README.md)."""
    import numpy as np

    def kernel():
        t = time.perf_counter()
        for i in range(40):
            rng = np.random.default_rng(np.random.SeedSequence(i))
            a = rng.standard_normal((6, 6))
            np.linalg.solve(a @ a.T + np.eye(6), rng.standard_normal(6))
        return time.perf_counter() - t

    best = {cpu: float("inf") for cpu in allowed}
    for _ in range(3):
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            best[cpu] = min(best[cpu], kernel())
    chosen = sorted(allowed, key=best.get)[:count]
    os.sched_setaffinity(0, chosen)
    return chosen


def _spawn(cmd, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the run could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded the {HARD_LIMIT_S:.0f} s limit: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"run failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def bench(workload, seed, seconds, trace, threads, tiny=False):
    """Run one workload repeatedly for about ``seconds``; return a dict with
    the runs, the check results and the median metrics."""
    deadline = time.monotonic() + HARD_LIMIT_S
    allowed = sorted(os.sched_getaffinity(0))
    out_base = os.path.join(OUT_ROOT, workload, f"seed{seed}")
    shutil.rmtree(out_base, ignore_errors=True)
    # Warm-up: compile bytecode and fill the file cache, so the first
    # measured set-up is not an outlier.
    _spawn([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import dppoison.harness.cli"], deadline)

    runs = []
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        out_dir = os.path.join(out_base, f"run{len(runs)}{'-traced' if traced else ''}")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--out", out_dir]
        cmd += ["--trace"] * traced + ["--tiny"] * tiny
        t0 = time.monotonic()
        cpus = _pin_to_quietest_cpus(allowed, threads)
        res = json.loads(_spawn(cmd, deadline).strip().splitlines()[-1])
        res.update(traced=traced, out_dir=out_dir, wall=time.monotonic() - t0, cpus=cpus)
        runs.append(res)
        untraced = sum(not r["traced"] for r in runs)
        enough = untraced >= MIN_UNTRACED_RUNS and (not trace or len(runs) % 2 == 0)
        next_s = sum(r["wall"] for r in runs[-2 if trace else -1:])
        if enough and time.monotonic() - start + next_s > seconds:
            break
    os.sched_setaffinity(0, allowed)

    reference = None if tiny else check.load_reference(workload, seed)
    first = runs[0]
    first_files = [_read(os.path.join(first["out_dir"], f)) for f in ("costs.csv", "trace.csv")]
    attempted = failed = 0
    problems = []
    for r in runs:
        keys = r["expected_keys"]
        costs = _read(os.path.join(r["out_dir"], "costs.csv"))
        fails = check.failed_rows((costs or b"").decode(), keys, r["error"], reference)
        files = [costs, _read(os.path.join(r["out_dir"], "trace.csv"))]
        if r is not first and files != first_files:
            fails = [(k, f"CSVs differ from {os.path.basename(first['out_dir'])}") for k in keys]
        attempted += len(keys)
        failed += len(fails)
        problems += [f"{os.path.basename(r['out_dir'])} row {k}: {why}" for k, why in fails]

    plain = [r for r in runs if not r["traced"]]
    metrics = {}
    if trace:
        traced_runs = [r for r in runs if r["traced"]]
        for name in traced_runs[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced_runs)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(r["run_s"] for r in plain)
        for r in traced_runs:
            gap = abs(r["layers"]["trace.self_sum_s"] - r["layers"]["trace.run_s"])
            if gap > 1e-6 * r["layers"]["trace.run_s"] + 1e-6:
                problems.append(f"{os.path.basename(r['out_dir'])}: layer self times miss run_s by {gap:.3g} s")
    else:
        for name in END_TO_END_UNITS:
            metrics[name] = statistics.median(r[name] for r in plain)
    return {
        "workload": workload,
        "runs": runs,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def _report(result, seed):
    runs = result["runs"]
    plain = [r for r in runs if not r["traced"]]
    print(f"{result['workload']} seed={seed}: {len(plain)} untraced and {len(runs) - len(plain)} traced runs")
    for name, value in result["metrics"].items():
        line = f"  {name:45s} {value:>14.6g} {unit_of(name)}"
        if name in END_TO_END_UNITS:
            vals = [r[name] for r in plain]
            line += f"   (median of {len(vals)}; min {min(vals):.6g}, max {max(vals):.6g})"
        print(line)
    print(f"  operations attempted={result['attempted']} failed={result['failed']}")
    for p in result["problems"]:
        print(f"  FAILED {p}")


def main(argv=None):
    p = argparse.ArgumentParser(description="dppoison benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1, help="BLAS/OpenMP threads per run (capped at nproc)")
    p.add_argument("--tiny", action="store_true", help="tiny-scale configs, for smoke tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "dppoison", "__init__.py")):
        sys.stderr.write(f"dppoison sources not found under {os.path.join(ROOT, 'src')}\n")
        return 2
    threads = max(1, min(args.blas_threads, len(os.sched_getaffinity(0))))
    pin_blas_threads(threads)
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    results = []
    try:
        for w in workloads:
            results.append(bench(w, args.seed, args.seconds, bool(args.trace), threads, args.tiny))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    env = dict(results[0]["runs"][0]["env"], nproc=len(os.sched_getaffinity(0)), blas_threads=threads)
    print("env " + json.dumps(env, sort_keys=True))
    for r in results:
        _report(r, args.seed)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    final = {
        "correct": all(r["failed"] == 0 and not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": unit_of(k.split(".", 1)[1] if len(results) > 1 else k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
