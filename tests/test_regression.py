"""Tests for the order-estimation helpers."""

import json

import numpy as np
import pytest

from roughkit.regression import OrderFit, check_order, dyadic_pairs


def test_fit_recovers_power_law():
    scales = [2.0**-m for m in range(8)]
    defects = [3.0 * s**1.7 for s in scales]
    fit = OrderFit.from_samples(scales, defects)
    assert fit.slope == pytest.approx(1.7, abs=1e-12)
    assert not fit.exact


def test_noise_floor_counts_as_exact():
    fit = OrderFit.from_samples([0.5, 0.25, 0.125], [1e-15, 5e-16, 0.0])
    assert fit.exact
    assert check_order("x", [0.5, 0.25], [1e-15, 1e-16], threshold=2.0).passed
    # ... but not for two-sided bands.
    assert not check_order("x", [0.5, 0.25], [1e-15, 1e-16], threshold=2.0, two_sided=True).passed


def test_insufficient_samples_cannot_certify():
    assert not check_order("x", [], [], threshold=1.0).passed
    assert not check_order("x", [0.5], [0.1], threshold=1.0).passed
    assert not check_order("x", [0.5, 0.25], [0.1, 1e-15], threshold=1.0).passed


def test_one_sided_and_two_sided_margins():
    scales = [2.0**-m for m in range(6)]
    defects = [s**1.0 for s in scales]
    assert check_order("x", scales, defects, threshold=1.1).passed       # 1.0 >= 1.1 - 0.15
    assert not check_order("x", scales, defects, threshold=1.2).passed
    assert check_order("x", scales, defects, threshold=1.1, two_sided=True).passed
    assert not check_order("x", scales, defects, threshold=0.8, two_sided=True).passed


def test_dyadic_pairs_disjoint_and_bounded():
    pairs = dyadic_pairs(257, min_pairs=8)
    strides = [s for s, _ in pairs]
    assert strides == [1, 2, 4, 8, 16, 32]
    for stride, ps in pairs:
        assert all(j - i == stride for i, j in ps)
        starts = [i for i, _ in ps]
        assert starts == sorted(starts)
        assert len(ps) >= 8
    assert dyadic_pairs(1) == []


def test_json_writes_a_slope_that_is_not_finite_as_null():
    exact = check_order("x", [0.5, 0.25], [1e-15, 1e-16], threshold=2.0)
    uncertified = check_order("x", [0.5], [0.1], threshold=1.0)
    fitted = check_order("x", [0.5, 0.25], [0.5**1.5, 0.25**1.5], threshold=1.0)
    assert exact.slope == np.inf and np.isnan(uncertified.slope)
    got = [json.loads(json.dumps(c.to_json_dict(), allow_nan=False)) for c in (exact, uncertified, fitted)]
    assert [(c["slope"], c["exact"]) for c in got] == [(None, True), (None, False), (fitted.slope, False)]
