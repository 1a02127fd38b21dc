"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from worker import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in final["metrics"].items()}
    text = "\n".join(lines[:-1])
    for m in spec:
        assert f" {m['name']} " in text and f" {m['unit']}" in text
    assert "operations attempted=" in text
    env = json.loads(lines[0].split(" ", 1)[1])
    assert set(env) == {"nproc", "python", "numpy", "blas", "blas_threads"}
    if trace:
        metrics = {k: v["value"] for k, v in final["metrics"].items()}
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.run_s"], rel=1e-6)
        out = os.path.join(ROOT, ".perfbench_out", workload, "seed3")
        traced = sorted(d for d in os.listdir(out) if d.endswith("-traced"))
        with open(os.path.join(out, traced[0], "spans.jsonl"), encoding="utf-8") as fh:
            span = json.loads(fh.readline())
        assert set(span) == {"run", "id", "name", "layer", "start", "end", "parent"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep-k-2d", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_of_nested_spans():
    spans = [
        ("root", "experiment", 0.0, 10.0, -1),
        ("a", "attacks", 1.0, 4.0, 0),
        ("a.inner", "learners", 2.0, 3.0, 1),
        ("b", "montecarlo", 5.0, 9.0, 0),
        ("c", "core", 8.0, 10.0, 0),  # overlaps b: covered time counts once
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 2.0])


def test_tracer_records_parents_and_layer_self_times_sum_to_the_root():
    ticks = iter(range(100))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "learners.solve_cold")
    mid = tracer.wrap(lambda: [leaf(), leaf()], "montecarlo.estimate_attack_cost")
    with tracer.span("experiment.run") as root:
        mid()
        leaf()
    names = [(s[0], s[4]) for s in tracer.spans]
    assert names == [
        ("experiment.run", -1),
        ("montecarlo.estimate_attack_cost", 0),
        ("learners.solve_cold", 1),
        ("learners.solve_cold", 1),
        ("learners.solve_cold", 0),
    ]
    m = layer_metrics(tracer.spans, tracer.counters, root)
    duration = tracer.spans[0][3] - tracer.spans[0][2]
    assert m["trace.self_sum_s"] == pytest.approx(duration)
    assert m["learners.solve_cold.calls"] == 3
    assert m["learners.self_s"] == pytest.approx(3.0)
    assert m["montecarlo.self_s"] == pytest.approx(3.0)


def _costs_text(rows, bound=0.0):
    lines = ["iteration,mean,stderr,lower_bound"]
    lines += [f"{k},{m:.17g},{s:.17g},{bound:.17g}" for k, (m, s) in rows.items()]
    return "\n".join(lines) + "\n"


def test_check_flags_a_perturbed_row():
    assert check.load_reference("attack-wine-output", 2) is None
    ref = check.load_reference("attack-wine-output", 1)
    keys = list(ref)
    assert check.failed_rows(_costs_text(ref), keys, reference=ref) == []

    bad = dict(ref)
    mean, stderr = bad[keys[3]]
    bad[keys[3]] = (mean * (1 + 10 * check.REL_TOL), stderr)
    fails = check.failed_rows(_costs_text(bad), keys, reference=ref)
    assert [k for k, _ in fails] == [keys[3]]

    bad = dict(ref)
    bad[keys[5]] = (math.nan, bad[keys[5]][1])
    del bad[keys[7]]
    fails = check.failed_rows(_costs_text(bad), keys, reference=ref)
    assert [k for k, _ in fails] == [keys[5], keys[7]]

    fails = check.failed_rows(_costs_text(ref, bound=1.0), keys)
    assert len(fails) == len(keys)
    assert len(check.failed_rows("", keys, error="solver failed")) == len(keys)
