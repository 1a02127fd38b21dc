"""tools/make_golden.py names the largest moved cell of each file it replaces."""

import make_golden


def write(directory, name, text):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(text)


def test_moved_names_the_largest_cell_per_file(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write(old, "costs.csv", "k,mean,stderr\n20,1.0,0.5\n40,2.0,0.25\n")
    write(new, "costs.csv", "k,mean,stderr\n20,1.0,0.5000000000000001\n40,2.5,0.25\n")
    write(old, "trace.csv", "iteration,x0\n0,0.5\n")
    write(new, "trace.csv", "iteration,x0\n0,0.5\n")
    assert make_golden.moved(old, new, ["costs.csv", "trace.csv"]) == (
        "costs.csv: largest relative change 0.2 at row 2, column 1"
    )


def test_unchanged_files_say_so(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for side in (old, new):
        write(side, "costs.csv", "k,mean\n1,0.5\n")
    assert make_golden.moved(old, new, ["costs.csv"]) == "unchanged"


def test_a_file_on_one_side_only_is_named(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write(old, "trace.csv", "iteration,x0\n0,0.5\n")
    write(new, "costs.csv", "k,mean\n1,0.5\n")
    assert make_golden.moved(old, new, ["costs.csv"]) == (
        "costs.csv: only in the new files; trace.csv: only in the old files"
    )
    # a config with no golden files yet: everything it wrote is new
    assert make_golden.moved(tmp_path / "none", new, ["costs.csv"]) == "costs.csv: only in the new files"
