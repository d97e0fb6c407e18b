"""Degenerate verifier inputs certify nothing.

A NaN or inf defect must fail an order check instead of counting as an
exact (all-noise) fit, and the time-pair selection needs at least one pair
per scale, which the CLI enforces at parse time (exit 2).
"""

import json
import math

import numpy as np
import pytest

from roughkit.cli import main
from roughkit.regression import OrderFit, check_order
from roughkit.roughpath import sample_fbm
from roughkit.rpde import _select_time_pairs

SCALES = [0.5, 0.25, 0.125, 0.0625]


@pytest.mark.parametrize("defects", [
    [math.nan] * 4,
    [1e-3, math.nan, 1e-5, 1e-6],
    [math.inf, 1e-4, 1e-5, 1e-6],
    [1e-20, math.nan, 1e-20, 1e-20],
])
def test_check_order_fails_on_non_finite_defects(defects):
    check = check_order("w", SCALES, defects, threshold=1.0)
    assert not check.passed
    assert math.isnan(check.slope)
    assert not OrderFit.from_samples(SCALES, defects).exact


def test_check_order_fails_on_non_finite_scales():
    check = check_order("w", [0.5, math.nan, 0.125, 0.0625], [1e-2, 1e-3, 1e-4, 1e-5], threshold=1.0)
    assert not check.passed


def test_all_noise_defects_still_count_as_exact():
    check = check_order("w", SCALES, [1e-20] * 4, threshold=1.0)
    assert check.passed and check.slope == math.inf


def test_time_pairs_need_an_anchor():
    with pytest.raises(ValueError, match="at least one"):
        _select_time_pairs(np.linspace(0.0, 1.0, 33), 0)


@pytest.fixture
def transport_inputs(tmp_path):
    path_csv = tmp_path / "path.csv"
    path_csv.write_text(sample_fbm(H=0.6, d=2, knots=9, seed=3).to_csv())
    driver = tmp_path / "driver.json"
    assert main(["sig", "--path", str(path_csv), "--gamma", "0.5", "--out", str(driver)]) == 0
    fields = tmp_path / "fields.json"
    fields.write_text(json.dumps({"n": 2, "d": 2, "fields": [
        {"family": "affine", "matrix": [[0.0, 0.5], [-0.5, 0.0]], "offset": [0.1, 0.0]},
        {"family": "affine", "matrix": [[0.2, 0.0], [0.0, -0.2]], "offset": [0.0, 0.1]},
    ]}))
    terminal = tmp_path / "terminal.json"
    terminal.write_text(json.dumps({"family": "polynomial", "n_in": 2, "components": [[
        {"exponents": [2, 0], "coeff": 0.5}, {"exponents": [0, 2], "coeff": 0.5},
    ]]}))
    return ["verify", "transport", "--driver", str(driver), "--fields", str(fields),
            "--terminal", str(terminal), "--space-grid=-0.5:0.5:2,-0.5:0.5:2", "--mesh", "0.125",
            "--report", str(tmp_path / "report.json")]


@pytest.mark.parametrize("flag,value", [
    ("--anchors", "0"), ("--anchors", "-2"), ("--time-points", "0"), ("--time-points", "-1"),
])
def test_cli_rejects_non_positive_counts(transport_inputs, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(transport_inputs + ["--time-points", "17", flag, value])
    assert exit_info.value.code == 2
    assert "positive" in capsys.readouterr().err
