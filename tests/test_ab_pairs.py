"""tools/ab_pairs.py runs a checkout against itself end to end."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_one_tiny_pair_of_the_repository_against_itself():
    script = os.path.join(ROOT, "tools", "ab_pairs.py")
    command = [sys.executable, script, ROOT, ROOT, "--workload", "evaluate-vertebral"]
    command += ["--pairs", "1", "--tiny"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for metric in ("setup_s", "run_s", "peak_rss_mb"):
        assert sum(line.startswith(metric + " ") for line in lines) == 1
    assert "CSVs byte-identical in 1 of 1 pairs" in lines
    assert "runs with an error: 0" in lines


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", os.path.join(ROOT, "tools", "ab_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs, gate", [(1, "n/a"), (9, "n/a"), (10, "yes")])
def test_gate_needs_ten_pairs(pairs, gate):
    # the change is lower in every pair, by far more than the IQR
    parent = [{"setup_s": 1.0, "run_s": 2.0 + 0.01 * i, "peak_rss_mb": 50.0} for i in range(pairs)]
    change = [{"setup_s": 1.0, "run_s": 1.0 + 0.01 * i, "peak_rss_mb": 50.0} for i in range(pairs)]
    (run_line,) = [line for line in load_tool().summarize(parent, change) if line.startswith("run_s ")]
    assert run_line.split()[-1] == gate


def test_unknown_workload_fails():
    script = os.path.join(ROOT, "tools", "ab_pairs.py")
    command = [sys.executable, script, ROOT, ROOT, "--workload", "no-such-workload", "--pairs", "1"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert "worker failed" in proc.stderr and "no-such-workload" in proc.stderr
