"""tools/ab_pairs.py runs a checkout against itself end to end."""

import ast
import glob
import importlib.util
import json
import os
import re
import subprocess
import sys

import ab_pairs
import pytest
import yaml

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


@pytest.mark.parametrize("pairs, gate", [(1, "n/a"), (9, "n/a"), (10, "yes")])
def test_gate_needs_ten_pairs(pairs, gate):
    # the change is lower in every pair, by far more than the IQR
    parent = [{"setup_s": 1.0, "run_s": 2.0 + 0.01 * i, "peak_rss_mb": 50.0} for i in range(pairs)]
    change = [{"setup_s": 1.0, "run_s": 1.0 + 0.01 * i, "peak_rss_mb": 50.0} for i in range(pairs)]
    (run_line,) = [line for line in ab_pairs.summarize(parent, change) if line.startswith("run_s ")]
    assert run_line.split()[-1] == gate


@pytest.mark.parametrize(
    "parent_run_s, change_run_s, worse",
    [
        # run_s may worsen by 25% of the parent's median (BENCHMARK.json)
        ([2.0 + 0.01 * i for i in range(10)], [2.6 + 0.01 * i for i in range(10)], "yes"),
        ([2.0 + 0.01 * i for i in range(10)], [2.2 + 0.01 * i for i in range(10)], "no"),
        # the parent's own IQR is wider than the bound
        ([1.0, 3.0] * 5, [1.1, 3.1] * 5, "unresolved"),
        # unless every change run beats every parent run
        ([2.0, 3.0] * 5, [1.0, 1.9] * 5, "no"),
    ],
)
def test_worse_verdict_holds_the_benchmark_bound(parent_run_s, change_run_s, worse):
    parent = [{"setup_s": 1.0, "run_s": v, "peak_rss_mb": 50.0} for v in parent_run_s]
    change = [{"setup_s": 1.0, "run_s": v, "peak_rss_mb": 50.0} for v in change_run_s]
    lines = ab_pairs.summarize(parent, change)
    (run_line,) = [line for line in lines if line.startswith("run_s ")]
    assert run_line.split()[-2] == worse
    (setup_line,) = [line for line in lines if line.startswith("setup_s ")]
    assert setup_line.split()[-2] == "no"


def test_workers_pin_the_thread_variables_of_the_benchmark():
    # read from perfbench/run.py's source, not run: loading it would put
    # perfbench/ on sys.path and import its check and worker modules
    with open(os.path.join(ROOT, "perfbench", "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (pinned,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["THREAD_VARS"]
    ]
    assert ab_pairs.THREAD_VARS == pinned


def test_ci_pins_the_thread_variables_of_the_benchmark():
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as fh:
        env = yaml.safe_load(fh)["jobs"]["tests"]["env"]
    assert env == {var: "1" for var in ab_pairs.THREAD_VARS}


def test_unknown_workload_fails():
    script = os.path.join(ROOT, "tools", "ab_pairs.py")
    command = [sys.executable, script, ROOT, ROOT, "--workload", "no-such-workload", "--pairs", "1"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert "worker failed" in proc.stderr and "no-such-workload" in proc.stderr


def write_csv(directory, name, rows):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(row) + "\n" for row in rows))


def test_csv_changes_reports_the_largest_cell_change_per_file(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for side, mean in ((a, "0.5"), (b, "0.50000000000001")):
        write_csv(side, "costs.csv", [["iteration", "mean"], ["0", "1.0"], ["1", mean]])
        write_csv(side, "trace.csv", [["iteration", "x0"], ["0", "0.25"]])
    write_csv(b, "extra.csv", [["x"]])
    changes = ab_pairs.csv_changes(a, b)
    assert sorted(changes) == ["costs.csv", "extra.csv"]
    worst, cell = changes["costs.csv"]
    assert worst == pytest.approx(2e-14, rel=1e-3) and cell == (2, 1)
    assert ab_pairs.change_lines(changes) == [
        "extra.csv: largest relative change inf",
        "costs.csv: largest relative change 2e-14 at row 2, column 1",
    ]
    assert ab_pairs.csv_changes(a, a) == {}


def stand_in_checkouts(tmp_path, monkeypatch, runs):
    """A parent and a change checkout, told apart by a marker in their
    copied src/, and a stand-in for the worker process that records
    (marker, path, environment) in runs and checks that every src/ module
    of both staged copies has bytecode, from the first run on. The change
    writes one cell that moved by 0.2, and a run from the copy staged at
    tmp/b reads 20% slower than one from tmp/a."""

    def fake_run(command, env, **kwargs):
        checkout = os.path.dirname(os.path.dirname(command[1]))
        staged = os.path.join(os.path.dirname(checkout), "[ab]", "src", "**", "*.py")
        modules = glob.glob(staged, recursive=True)
        assert len(modules) == 4 and all(os.path.exists(importlib.util.cache_from_source(m)) for m in modules)
        with open(os.path.join(checkout, "src", "side"), encoding="utf-8") as fh:
            side = fh.read()
        runs.append((side, checkout, env))
        value = "2.0" if side == "parent" else "2.5"
        write_csv(command[command.index("--out") + 1], "costs.csv", [["iteration", "mean"], ["0", value]])
        run_s = 1.2 if os.path.basename(checkout) == "b" else 1.0
        result = {"setup_s": 0.1, "run_s": run_s, "peak_rss_mb": 40.0, "error": None}
        return subprocess.CompletedProcess(command, 0, stdout=json.dumps(result) + "\n", stderr="")

    checkouts = {side: tmp_path / f"checkout-of-the-{side}" for side in ("parent", "change")}
    for side, checkout in checkouts.items():
        for part in ab_pairs.COPIED:
            (checkout / part).mkdir(parents=True)
        (checkout / "src" / "side").write_text(side)
        (checkout / "src" / "pkg").mkdir()
        (checkout / "src" / "pkg" / "__init__.py").write_text("")
        (checkout / "src" / "pkg" / "mod.py").write_text(f"SIDE = {side!r}\n")
    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    return checkouts


def test_report_names_moved_cells_and_exit_status_is_unchanged(tmp_path, monkeypatch, capsys):
    runs = []
    checkouts = stand_in_checkouts(tmp_path, monkeypatch, runs)
    status = ab_pairs.main([str(checkouts["parent"]), str(checkouts["change"]), "--workload", "w", "--pairs", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert "CSVs byte-identical in 0 of 4 pairs" in lines
    assert "costs.csv: largest relative change 0.2 at row 1, column 1" in lines
    # both sides ran from copies, never from a checkout, on two paths of one
    # length, and each side from each path in two of the four pairs
    paths = {path for _, path, _ in runs}
    assert len(paths) == 2 and len({len(path) for path in paths}) == 1
    assert not paths & {str(checkout) for checkout in checkouts.values()}
    assert not [path for checkout in checkouts.values() for path in checkout.rglob("__pycache__")]
    for side in checkouts:
        assert sorted(path for s, path, _ in runs if s == side) == sorted([*paths, *paths])
    # every run got one environment but for the padding, whose length varies
    pads = [env.pop(ab_pairs.PAD_VAR) for _, _, env in runs]
    assert len(set(pads)) > 1
    assert all(env == runs[0][2] for _, _, env in runs)


def test_aa_runs_two_copies_of_the_parent_and_reads_a_null_ratio(tmp_path, monkeypatch, capsys):
    runs = []
    checkouts = stand_in_checkouts(tmp_path, monkeypatch, runs)
    status = ab_pairs.main([str(checkouts["parent"]), "--aa", "--workload", "w", "--pairs", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert "CSVs byte-identical in 4 of 4 pairs" in lines
    assert any(line.startswith("A/A: ") for line in lines)
    # only the parent ran, from two copies on paths of one length, each in
    # four runs; the slower path is shared by both sides, so the null
    # ratio is 1 although the run times spread by 20%
    assert {side for side, _, _ in runs} == {"parent"}
    paths = {path for _, path, _ in runs}
    assert len(paths) == 2 and len({len(path) for path in paths}) == 1
    assert str(checkouts["parent"]) not in paths
    assert sorted(path for _, path, _ in runs) == sorted([*paths] * 4)
    (run_line,) = [line for line in lines if line.startswith("run_s ")]
    assert re.fullmatch(r"run_s +1\.1000 \[ *0\.2000\] +1\.1000 \[ *0\.2000\] +1\.000 +2/4 +no n/a", run_line)


@pytest.mark.parametrize("with_change, aa", [(True, True), (False, False)])
def test_aa_takes_no_change_checkout_and_a_comparison_needs_one(tmp_path, with_change, aa):
    argv = [str(tmp_path)] + [str(tmp_path)] * with_change + ["--aa"] * aa + ["--workload", "w", "--pairs", "1"]
    with pytest.raises(SystemExit) as exc:
        ab_pairs.main(argv)
    assert exc.value.code == 2
