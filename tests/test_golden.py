"""Golden-output test: every shipped config, rerun at a reduced scale,
reproduces its committed costs.csv and trace.csv.

The golden files under tests/golden/ are written by tools/make_golden.py,
which also holds the reduced scale, so this test and the generator
cannot drift apart. A change that moves outputs on purpose regenerates
them and lists the moved cells; an unexplained change fails here.

Cells are compared as numbers by tools/csvdiff.py, with the relative
change |a - b| / max(|a|, |b|) (0 when both are 0), the rule
tools/ab_pairs.py reports by too. The test fails if any cell moves by
more than REL_TOL. Bytes that differ within REL_TOL pass with a
warning that names the largest change per file, so a run still shows
whether it matched exactly.
"""

import os
import warnings

import csvdiff
import make_golden
import pytest

# Another BLAS build or CPU kernel may sum a dot product or a solve in a
# different order, which moves a result by a few ulps (about 1e-16
# relative); solving single draws with the batched Newton in place of the
# scalar one moved the costs of the benchmark's sweep-k-2d run by at most
# 6.7e-16, and evaluating each Monte-Carlo block as one stack with the
# log1p form of softplus moved wine_output's stderr by at most 5.8e-14,
# since that stderr is 2e-5 of its mean; stepping a sweep's rows in
# lockstep through per-row batched solves moved sweep cells by at most
# 1.7e-16 here and 2.4e-15 at full scale, and taking the stacked lanes'
# item gradients in one pass, with one batched Hessian product and solve,
# moved them by at most 2.1e-16 here and 2.4e-15 at full scale; backtracking the logistic
# Newton on the gradient norm from a linear-response cold start moved
# costs by at most 4.7e-13 and a trace cell by 1.2e-12 here, and by
# 7.6e-13 and 1.4e-10 at full scale, since the solves stop anywhere
# within GRAD_TOL; solving ridge victims in the eigenbasis of X'X, with
# Newton steps on the constraint dual, moved a trace cell by at most
# 9.8e-12 here and 6.1e-11 at full scale, and summing a ridge lane's X'X
# as the Gram of its unmoved rows plus its moved rows' products moved a
# trace cell by at most 3.6e-12 here and 7.5e-12 at full scale. The attack feeds each of its 50 SGD steps into the
# next, so such moves can grow, and 1e-9 leaves the largest one here
# almost three orders of magnitude of room. A change in what is computed moves
# cells by more: loosening the logistic stopping tolerance from 1e-10 to
# 1e-4 alone moves costs by about 1e-6.
REL_TOL = 1e-9

GOLDEN_DIR = make_golden.GOLDEN_DIR
CONFIGS = [os.path.splitext(os.path.basename(p))[0] for p in make_golden.config_paths()]


def test_golden_files_exist_for_exactly_the_shipped_configs():
    assert sorted(os.listdir(GOLDEN_DIR)) == CONFIGS


@pytest.mark.parametrize("name", CONFIGS)
def test_config_reproduces_golden_outputs(name, tmp_path):
    golden_dir = os.path.join(GOLDEN_DIR, name)
    expected = sorted(os.listdir(golden_dir))
    config = os.path.join(make_golden.CONFIG_DIR, f"{name}.yaml")
    written = make_golden.run_reduced(config, tmp_path)
    assert sorted(written) == expected

    changes = {}
    for file in expected:
        golden, produced = os.path.join(golden_dir, file), os.path.join(tmp_path, file)
        with open(golden, "rb") as fa, open(produced, "rb") as fb:
            if fa.read() == fb.read():
                continue
        changes[file] = csvdiff.largest_change(golden, produced)
    report = ", ".join(
        f"{file}: largest relative change {worst:.3g} at row {cell[0]}, column {cell[1]}"
        for file, (worst, cell) in sorted(changes.items())
    )
    assert all(worst <= REL_TOL for worst, _ in changes.values()), f"{name}: {report}"
    if changes:
        warnings.warn(f"{name}: bytes differ within {REL_TOL:g}: {report}")
