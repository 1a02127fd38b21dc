"""One workload run in a fresh process.

Started by ``run.py`` as ``python3 perfbench/worker.py --workload W --seed S
--out DIR [--trace] [--tiny]``. The parent sets the BLAS/OpenMP thread
variables before this process imports numpy. The worker

1. times the set-up: ``import dppoison``, ``load_config`` and the data,
   evaluation-set and cost builds (``setup_s``);
2. times the workload's ``run_experiment``/``run_evaluation`` call into DIR
   (``run_s``);
3. reads the process's peak resident memory (``peak_rss_mb``);

and prints one JSON object on stdout. With ``--trace`` the layers are
wrapped by :class:`tracer.Tracer` from before the set-up builds, the spans
are written to DIR/spans.jsonl once the run has ended, and the per-layer
metrics of the run are added to the result.
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> (config file, runner). The configs belong to the benchmark; see
# README.md for why each workload exists.
WORKLOADS = {
    "evaluate-vertebral": ("evaluate-vertebral.yaml", "run_evaluation"),
    "sweep-k-2d": ("sweep-k-2d.yaml", "run_experiment"),
    "attack-wine-output": ("attack-wine-output.yaml", "run_experiment"),
}


def config_path(workload):
    return os.path.join(HERE, "workloads", WORKLOADS[workload][0])


def _shrink(config):
    """Tiny-scale variant of a workload config for smoke tests."""
    attack = dataclasses.replace(config.attack, T=12, T_eval=20, relax_T=4)
    config = dataclasses.replace(config, attack=attack, curve_points=min(config.curve_points, 4))
    if config.sweep is not None:
        sweep = dataclasses.replace(config.sweep, values=config.sweep.values[:2])
        config = dataclasses.replace(config, sweep=sweep)
    return config


def _blas_name(numpy):
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def expected_keys(config, runner):
    """First-column values the costs.csv of a run of config should hold,
    derived from the config alone."""
    if runner == "run_evaluation":
        return ["0"]
    if config.sweep is not None:
        return [str(v) for v in config.sweep.values]
    if config.attack.T == 0 or config.curve_points < 2:
        return ["0"]
    T, points = config.attack.T, config.curve_points
    return [str(t) for t in sorted({round(i * T / (points - 1)) for i in range(points)})]


def run(workload, seed, out_dir, trace=False, tiny=False):
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dppoison  # noqa: F401  (its import is part of set-up)
    from dppoison.harness import cli, experiment

    config = cli.load_config(config_path(workload), seed)
    if tiny:
        config = _shrink(config)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{workload}/seed{seed}/{os.path.basename(out_dir)}")
        tracer.install()
    data = experiment.build_dataset(config)
    eval_set = experiment.build_eval_set(config, data)
    experiment.build_cost(config, data, eval_set)
    setup_s = time.perf_counter() - t0

    runner = getattr(experiment, WORKLOADS[workload][1])
    if tracer is None:
        t1 = time.perf_counter()
        summary = runner(config, out_dir)
        run_s = time.perf_counter() - t1
    else:
        with tracer.span("experiment.run") as root:
            summary = runner(config, out_dir)
        start, end = tracer.spans[root][2:4]
        run_s = end - start
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "error": summary.get("error"),
        "expected_keys": expected_keys(config, WORKLOADS[workload][1]),
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": _blas_name(numpy),
        },
    }
    if tracer is not None:
        from tracer import layer_metrics

        # Surrogate costs that reach an output: summary.json keeps the
        # final one of a curve run; the k sweep writes none.
        tracer.count({"attacks.surrogate_useful": int("final_surrogate_cost" in summary)})
        metrics = layer_metrics(tracer.spans, tracer.counters, root)
        metrics["datasets.build_s"] = sum(
            s[3] - s[2] for s in tracer.spans if s[4] == -1 and s[1] == "datasets"
        )
        metrics["trace.run_s"] = run_s
        result["layers"] = metrics
        with open(os.path.join(out_dir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    result = run(args.workload, args.seed, args.out, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
