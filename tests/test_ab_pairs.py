"""tools/ab_pairs.py runs a checkout against itself end to end."""

import os
import subprocess
import sys

import ab_pairs
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


@pytest.mark.parametrize("pairs, gate", [(1, "n/a"), (9, "n/a"), (10, "yes")])
def test_gate_needs_ten_pairs(pairs, gate):
    # the change is lower in every pair, by far more than the IQR
    parent = [{"setup_s": 1.0, "run_s": 2.0 + 0.01 * i, "peak_rss_mb": 50.0} for i in range(pairs)]
    change = [{"setup_s": 1.0, "run_s": 1.0 + 0.01 * i, "peak_rss_mb": 50.0} for i in range(pairs)]
    (run_line,) = [line for line in ab_pairs.summarize(parent, change) if line.startswith("run_s ")]
    assert run_line.split()[-1] == gate


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


def test_report_names_moved_cells_and_exit_status_is_unchanged(tmp_path, monkeypatch, capsys):
    # a stand-in worker: the change writes one cell that moved by 0.2

    def fake_worker(checkout, workload, seed, out_dir, tiny, cpu):
        value = "2.0" if checkout == "parent" else "2.5"
        write_csv(out_dir, "costs.csv", [["iteration", "mean"], ["0", value]])
        return {"setup_s": 0.1, "run_s": 1.0, "peak_rss_mb": 40.0, "error": None}

    monkeypatch.setattr(ab_pairs, "run_worker", fake_worker)
    status = ab_pairs.main(["parent", "change", "--workload", "w", "--pairs", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert "CSVs byte-identical in 0 of 2 pairs" in lines
    assert "costs.csv: largest relative change 0.2 at row 1, column 1" in lines
