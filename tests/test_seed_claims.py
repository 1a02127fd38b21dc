"""tools/seed_claims.py: the sweep criteria's rule and its report over seeds."""

import math
import re

import pytest

import seed_claims


@pytest.mark.parametrize(
    "steps, ok, worst",
    [
        ([(3.0, 0.1), (2.0, 0.1), (1.0, 0.1)], True, -1.0 - 2.0 * math.hypot(0.1, 0.1)),
        # a rise within twice the combined standard error passes
        ([(1.0, 0.3), (1.5, 0.4)], True, 0.5 - 1.0),
        ([(1.0, 0.3), (2.5, 0.4), (2.0, 0.0)], False, 1.5 - 1.0),
        ([(1.0, 0.0)], True, -math.inf),
    ],
)
def test_monotone_within_noise(steps, ok, worst):
    assert seed_claims.monotone_within_noise(steps) == (ok, pytest.approx(worst, rel=1e-12))


def test_steps_of_costs_rows():
    rows = [[20, 4.0, 0.1, 1.0], [40, 3.0, 0.2, 2.5]]
    assert seed_claims.budget_steps(rows) == [(4.0, 0.1), (3.0, 0.2)]
    assert seed_claims.gap_steps(rows) == [(3.0, 0.1), (0.5, 0.2)]


def test_clopper_pearson_closed_forms():
    # with no failure (or no pass) the interval's open end has a closed form
    lower, upper = seed_claims.clopper_pearson(12, 12)
    assert upper == 1.0 and lower == pytest.approx(0.025 ** (1 / 12), abs=1e-12)
    lower, upper = seed_claims.clopper_pearson(0, 36)
    assert lower == 0.0 and upper == pytest.approx(1 - 0.025 ** (1 / 36), abs=1e-12)
    lower, upper = seed_claims.clopper_pearson(35, 36)
    flipped = seed_claims.clopper_pearson(1, 36)
    assert (lower, upper) == (pytest.approx(1 - flipped[1], abs=1e-12), pytest.approx(1 - flipped[0], abs=1e-12))


def test_report_at_a_tiny_scale(capsys):
    assert seed_claims.main(["2", "--scale", "3", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = seed_claims.BUDGET_CONFIGS + seed_claims.EPSILON_CONFIGS
    assert lines[:2] == [
        "worst step excess per run at T=3, T_eval=2 (positive fails)",
        "seed  " + "  ".join(names),
    ]
    for seed, line in zip((1, 2), lines[2:4]):
        cells = line.split()
        assert cells[0] == str(seed) and len(cells) == 1 + len(names)
        assert all(re.fullmatch(r"[+-]\d+\.\d{4}", cell) for cell in cells[1:])
    number = r"\[\d\.\d{3}, \d\.\d{3}\]"
    assert re.fullmatch(
        rf"criterion 7 \(attack cost non-increasing in k\): \d/6 pass, 95% CI {number}; failed: .+", lines[4]
    )
    assert re.fullmatch(
        rf"criterion 9 \(gap to the bound non-increasing in epsilon\): \d/2 pass, 95% CI {number}; failed: .+", lines[5]
    )
    assert len(lines) == 6
