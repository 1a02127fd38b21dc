"""tools/csvdiff.py lists every moved cell of two files or two run trees."""

import math
import os
import subprocess
import sys

import csvdiff

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "csvdiff.py")


def run(*args):
    command = [sys.executable, SCRIPT, *map(str, args)]
    return subprocess.run(command, capture_output=True, text=True, timeout=60)


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_two_files_print_every_moved_cell(tmp_path):
    write(tmp_path / "a.csv", "k,mean,stderr\n20,1.0,0.5\n40,2.0,0.25\n")
    write(tmp_path / "b.csv", "k,mean,stderr\n20,1.0,0.5000000000000001\n40,2.5,0.25\n")
    proc = run(tmp_path / "a.csv", tmp_path / "b.csv")
    assert proc.returncode == 1, proc.stderr
    b = tmp_path / "b.csv"
    assert proc.stdout.splitlines() == [
        f"{b} row 1 column 2: 0.5 -> 0.5000000000000001 relative change 2.22e-16",
        f"{b} row 2 column 1: 2.0 -> 2.5 relative change 0.2",
        "2 cells moved in 1 files; largest relative change 0.2",
    ]


def test_identical_trees_exit_zero(tmp_path):
    for side in ("a", "b"):
        write(tmp_path / side / "run" / "costs.csv", "k,mean\n1,0.5\n")
    proc = run(tmp_path / "a", tmp_path / "b")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 cells moved in 0 files; largest relative change 0"]


def test_trees_pair_files_by_path_and_report_missing_ones(tmp_path):
    write(tmp_path / "a" / "x" / "costs.csv", "k,mean\n1,0.5\n")
    write(tmp_path / "b" / "x" / "costs.csv", "k,mean\n1,0.25\n")
    write(tmp_path / "a" / "y" / "trace.csv", "t\n0\n")
    write(tmp_path / "a" / "y" / "summary.json", "{}")
    proc = run(tmp_path / "a", tmp_path / "b")
    assert proc.returncode == 1, proc.stderr
    costs, trace = os.path.join("x", "costs.csv"), os.path.join("y", "trace.csv")
    assert proc.stdout.splitlines() == [
        f"{costs} row 1 column 1: 0.5 -> 0.25 relative change 0.5",
        f"{trace}: shape differs at row 0 (or only one side has the file)",
        "2 cells moved in 2 files; largest relative change inf",
    ]


def test_a_file_and_a_tree_are_rejected(tmp_path):
    write(tmp_path / "a.csv", "k\n1\n")
    (tmp_path / "b").mkdir()
    proc = run(tmp_path / "a.csv", tmp_path / "b")
    assert proc.returncode == 2
    assert "two files or two directories" in proc.stderr


def test_largest_change_ranks_a_shape_difference_first(tmp_path):
    write(tmp_path / "a.csv", "k,mean\n1,0.5\n2,0.5\n")
    write(tmp_path / "b.csv", "k,mean\n1,0.25\n")
    assert csvdiff.largest_change(tmp_path / "a.csv", tmp_path / "b.csv") == (math.inf, (2, 0))
    assert csvdiff.cell_changes(tmp_path / "a.csv", tmp_path / "b.csv")[0] == (1, 1, "0.5", "0.25", 0.5)
