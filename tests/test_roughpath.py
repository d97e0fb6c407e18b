"""Tests for piecewise-linear rough path lifts and fBm drivers.

Derived expectations come from independent oracles: iterated-integral
quadrature for signature coefficients, series expansion for exponentials,
Monte-Carlo moments for the fBm sampler.
"""

import math

import numpy as np
import pytest

from roughkit.algebra import (
    EMPTY_WORD,
    GroupTensor,
    TruncatedTensor,
    is_character,
    max_coeff_diff,
    tensor_exp,
    word,
)
from roughkit.errors import NumericalFailure
from roughkit.regression import check_order
from roughkit.roughpath import (
    GeometricRoughPath,
    PiecewiseLinearPath,
    hoelder_level,
    lift_pl,
    sample_fbm,
)


def iterated_integral_quadrature(path: PiecewiseLinearPath, letters, n_steps=4000) -> float:
    """Riemann approximation of ∫…∫_{0<r_1<…<r_p<T} dx^{i_1}…dx^{i_p}.

    Recursive left-point quadrature on a fine uniform grid; independent of
    the tensor-exponential construction under test.
    """
    ts = np.linspace(0.0, path.horizon, n_steps + 1)
    xs = np.array([path.value_at(t) for t in ts])
    level = np.ones(n_steps + 1)
    for letter in letters:
        incs = np.diff(xs[:, letter - 1])
        level = np.concatenate([[0.0], np.cumsum(level[:-1] * incs)])
    return float(level[-1])


def test_hoelder_level():
    assert hoelder_level(0.9) == 1
    assert hoelder_level(0.5) == 2
    assert hoelder_level(0.3) == 3
    assert hoelder_level(0.25) == 4
    assert hoelder_level(1.0) == 1
    with pytest.raises(ValueError):
        hoelder_level(0.0)


def test_lift_level_only_overridable_upward():
    path = PiecewiseLinearPath(times=np.array([0.0, 1.0]), values=np.array([[0.0], [1.0]]))
    assert lift_pl(path, gamma=0.4, level=3).level == 3
    with pytest.raises(ValueError):
        lift_pl(path, gamma=0.4, level=1)  # N_γ = 2


def test_pl_path_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearPath(times=np.array([0.0, 1.0, 0.5]), values=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        PiecewiseLinearPath(times=np.array([0.5, 1.0]), values=np.zeros((2, 1)))


def test_pl_csv_round_trip():
    p = PiecewiseLinearPath(times=np.array([0.0, 0.5, 1.0]), values=np.array([[0.0, 1.0], [0.3, -0.2], [1.0, 0.7]]))
    q = PiecewiseLinearPath.from_csv(p.to_csv())
    assert np.array_equal(p.times, q.times)
    assert np.array_equal(p.values, q.values)


# ---------------------------------------------------------------------------
# Lifts.
# ---------------------------------------------------------------------------

def test_single_segment_level2_area():
    a, b, horizon = 0.8, -0.5, 1.3
    path = PiecewiseLinearPath(
        times=np.array([0.0, horizon]), values=np.array([[0.0, 0.0], [a, b]])
    )
    rp = lift_pl(path, gamma=0.5, level=2)
    w = rp.increment(0.0, horizon)
    oracle = iterated_integral_quadrature(path, (1, 2))
    assert oracle == pytest.approx(a * b / 2, rel=1e-3)
    assert w.coeff(word(1, 2)) == pytest.approx(a * b / 2, abs=1e-12)
    assert w.coeff(word(1)) == pytest.approx(a)
    assert w.coeff(word(2)) == pytest.approx(b)
    assert w.coeff(EMPTY_WORD) == 1.0


def test_multi_segment_level3_against_quadrature():
    rng = np.random.default_rng(42)
    path = PiecewiseLinearPath(
        times=np.array([0.0, 0.4, 0.7, 1.0]),
        values=rng.standard_normal((4, 2)).cumsum(axis=0) * 0.5,
    )
    path = PiecewiseLinearPath(times=path.times, values=path.values - path.values[0])
    rp = lift_pl(path, gamma=0.3, level=3)
    w = rp.increment(0.0, 1.0)
    for letters in [(1,), (2,), (1, 2), (2, 1), (1, 1, 2), (2, 1, 2)]:
        oracle = iterated_integral_quadrature(path, letters, n_steps=6000)
        assert w.coeff(word(*letters)) == pytest.approx(oracle, abs=5e-4)


def test_two_equal_segments_compose():
    delta = 0.6
    path = PiecewiseLinearPath(
        times=np.array([0.0, 0.5, 1.0]), values=np.array([[0.0], [delta], [2 * delta]])
    )
    rp = lift_pl(path, gamma=0.5, level=3)
    expected = tensor_exp(TruncatedTensor(1, 3, {word(1): 2 * delta}))
    assert max_coeff_diff(rp.basepoints[-1].tensor, expected.tensor) <= 1e-14


def test_increment_identity_and_errors():
    path = PiecewiseLinearPath(times=np.array([0.0, 1.0]), values=np.array([[0.0], [1.0]]))
    rp = lift_pl(path, gamma=0.5)
    assert rp.increment(0.3, 0.3) == GroupTensor.identity(1, 2)
    with pytest.raises(ValueError):
        rp.increment(0.5, 0.2)
    with pytest.raises(ValueError):
        rp.increment(-0.1, 0.5)
    with pytest.raises(ValueError):
        rp.increment(0.5, 1.5)


def test_chen_relation_on_random_triples():
    rng = np.random.default_rng(3)
    m = 6
    path = PiecewiseLinearPath(
        times=np.linspace(0.0, 1.0, m + 1),
        values=np.vstack([np.zeros((1, 2)), rng.standard_normal((m, 2)).cumsum(axis=0) * 0.4]),
    )
    rp = lift_pl(path, gamma=0.3, level=3)
    times = rp.times
    worst = 0.0
    for i in range(len(times)):
        for j in range(i, len(times)):
            for k in range(j, len(times)):
                s, u, t = times[i], times[j], times[k]
                direct = rp.increment(s, t)
                composed = rp.increment(s, u).convolve(rp.increment(u, t))
                worst = max(worst, max_coeff_diff(direct.tensor, composed.tensor))
    assert worst <= 1e-12


def test_increments_are_characters():
    rng = np.random.default_rng(5)
    path = PiecewiseLinearPath(
        times=np.linspace(0.0, 1.0, 5),
        values=np.vstack([np.zeros((1, 2)), rng.standard_normal((4, 2)).cumsum(axis=0) * 0.5]),
    )
    rp = lift_pl(path, gamma=0.3, level=3)
    for s, t in [(0.0, 1.0), (0.25, 0.75), (0.1, 0.9), (0.5, 0.5)]:
        chk = is_character(rp.increment(s, t).tensor, tol=1e-10)
        assert chk.ok, f"character violation {chk.violation} at ({s},{t})"


def test_collinear_refinement_leaves_increments_unchanged():
    path = PiecewiseLinearPath(
        times=np.array([0.0, 1.0, 2.0]), values=np.array([[0.0, 0.0], [1.0, 0.5], [1.5, 2.0]])
    )
    refined = PiecewiseLinearPath(
        times=np.array([0.0, 0.5, 1.0, 1.25, 2.0]),
        values=np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 0.5], [1.125, 0.875], [1.5, 2.0]]),
    )
    a = lift_pl(path, gamma=0.3, level=3)
    b = lift_pl(refined, gamma=0.3, level=3)
    for s, t in [(0.0, 2.0), (0.5, 1.25), (0.0, 1.0), (1.0, 2.0)]:
        assert max_coeff_diff(a.increment(s, t).tensor, b.increment(s, t).tensor) <= 1e-12


def test_off_grid_increment_exact_through_generator():
    # Sub-segment evaluation is exact for PL paths: the increment across
    # [0.25, 0.75] of a single segment is exp of half the chord.
    delta = np.array([0.8, -0.3])
    path = PiecewiseLinearPath(times=np.array([0.0, 1.0]), values=np.vstack([np.zeros(2), delta]))
    rp = lift_pl(path, gamma=0.5, level=2)
    inc = rp.increment(0.25, 0.75)
    expected = tensor_exp(TruncatedTensor.from_vector(0.5 * delta, 2))
    assert max_coeff_diff(inc.tensor, expected.tensor) <= 1e-14


def test_geodesic_interpolation_without_generator():
    rng = np.random.default_rng(11)
    path = PiecewiseLinearPath(
        times=np.linspace(0.0, 1.0, 4),
        values=np.vstack([np.zeros((1, 2)), rng.standard_normal((3, 2)).cumsum(axis=0) * 0.4]),
    )
    rp = lift_pl(path, gamma=0.3, level=3)
    bare = GeometricRoughPath.from_json(rp.to_json())
    assert bare.generator is None
    s, u, t = 0.1, 0.45, 0.8
    direct = bare.increment(s, t)
    composed = bare.increment(s, u).convolve(bare.increment(u, t))
    assert max_coeff_diff(direct.tensor, composed.tensor) <= 1e-12
    assert is_character(bare.increment(s, t).tensor, tol=1e-10).ok
    # Geodesic interpolation of a PL lift coincides with the generator route
    # inside one segment (same log direction there).
    inside = 0.4
    assert max_coeff_diff(
        bare.increment(1.0 / 3.0, inside).tensor, rp.increment(1.0 / 3.0, inside).tensor
    ) <= 1e-12


def test_smooth_driver_coefficient_orders():
    # For a smooth driver, ⟨W_{st}, e_w⟩ = O(|t−s|^{|w|}).
    ts = np.linspace(0.0, 1.0, 2**8 + 1)
    values = np.column_stack([np.sin(ts), np.cos(2 * ts) - 1.0])
    path = PiecewiseLinearPath(times=ts, values=values)
    rp = lift_pl(path, gamma=0.3, level=3)
    for letters in [(1,), (1, 2), (1, 2, 2)]:
        spans, defects = [], []
        for m in range(0, 8):
            stride = 2**m
            pairs = [(i, i + stride) for i in range(0, len(ts) - stride, stride)]
            vals = [abs(rp.increment(ts[i], ts[j]).coeff(word(*letters))) for i, j in pairs]
            spans.append(ts[stride] - ts[0])
            defects.append(max(vals))
        chk = check_order(f"w={letters}", spans, defects, threshold=len(letters), two_sided=True)
        assert chk.passed, f"slope {chk.slope} for word {letters}"


def test_holder_diagnostic_linear_path():
    # W_t = t·e_1 lifted at γ=1/2: sup |t−s| / |t−s|^{1/2} = T^{1/2}.
    path = PiecewiseLinearPath(times=np.array([0.0, 2.0]), values=np.array([[0.0], [2.0]]))
    rp = lift_pl(path, gamma=0.5, level=2)
    grid = np.linspace(0.0, 2.0, 9)
    table = rp.holder_diagnostic(grid)
    assert table[word(1)] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert EMPTY_WORD not in table
    assert all(np.isfinite(v) for v in table.values())


def test_holder_diagnostic_fbm_finite():
    path = sample_fbm(H=0.4, d=2, knots=33, seed=1)
    rp = lift_pl(path, gamma=0.3, level=3)
    table = rp.holder_diagnostic(rp.times[::4])
    assert all(np.isfinite(v) for v in table.values())
    assert max(table.values()) > 0


def test_roughpath_json_round_trip():
    path = sample_fbm(H=0.5, d=2, knots=9, seed=7)
    rp = lift_pl(path, gamma=0.5)
    back = GeometricRoughPath.from_json(rp.to_json())
    assert back.gamma == rp.gamma and back.level == rp.level
    assert np.array_equal(back.times, rp.times)
    for g, h in zip(back.basepoints, rp.basepoints):
        assert g.tensor == h.tensor


# ---------------------------------------------------------------------------
# fBm sampling.
# ---------------------------------------------------------------------------

def test_fbm_determinism():
    a = sample_fbm(H=0.3, d=2, knots=16, seed=123)
    b = sample_fbm(H=0.3, d=2, knots=16, seed=123)
    assert np.array_equal(a.values, b.values)
    c = sample_fbm(H=0.3, d=2, knots=16, seed=124)
    assert not np.array_equal(a.values, c.values)


def test_fbm_h_half_is_brownian():
    # Monte-Carlo oracle: increments i.i.d. N(0, dt); pooled sample variance
    # over ~10^4 draws must sit in a 3σ band around dt.
    knots, paths = 17, 640
    dt = 1.0 / (knots - 1)
    samples = []
    for seed in range(paths):
        p = sample_fbm(H=0.5, d=1, knots=knots, seed=seed)
        samples.extend(np.diff(p.values[:, 0]) ** 2)
    samples = np.asarray(samples)
    mean = samples.mean()
    # Var(X²) = 2 dt² for X ~ N(0, dt).
    band = 3.0 * math.sqrt(2.0 * dt**2 / len(samples))
    assert abs(mean - dt) <= band


def test_fbm_covariance_matches_formula():
    H = 0.7
    knots = 9
    n_paths = 4000
    acc = None
    for seed in range(n_paths):
        p = sample_fbm(H=H, d=1, knots=knots, seed=seed)
        v = p.values[:, 0]
        acc = np.outer(v, v) if acc is None else acc + np.outer(v, v)
    emp = acc / n_paths
    ts = np.linspace(0.0, 1.0, knots)
    s, t = np.meshgrid(ts, ts, indexing="ij")
    target = 0.5 * (s ** (2 * H) + t ** (2 * H) - np.abs(t - s) ** (2 * H))
    assert np.max(np.abs(emp - target)) <= 0.12  # ~3σ for this sample size


def test_fbm_input_validation():
    with pytest.raises(ValueError):
        sample_fbm(H=1.2, d=1, knots=8, seed=0)
    with pytest.raises(ValueError):
        sample_fbm(H=0.5, d=1, knots=1, seed=0)


def test_fbm_cholesky_failure_reported(monkeypatch):
    # A conditioning-driven factorization failure must surface as a
    # NumericalFailure naming the operation, not a bare LinAlgError.
    def boom(_):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", boom)
    with pytest.raises(NumericalFailure, match="sample_fbm"):
        sample_fbm(H=0.5, d=1, knots=8, seed=0)


def test_off_grid_basepoint_matches_per_coordinate_interpolation():
    # W_t between knots is W_left ⋆ exp(X_t − X_left), with X_t interpolated
    # coordinate by coordinate by np.interp; the one-expression form must
    # reproduce it to 1e-15 on lift_pl drivers of every alphabet size.
    rng = np.random.default_rng(41)
    for d, level, knots in [(1, 3, 5), (2, 3, 17), (3, 4, 9)]:
        path = sample_fbm(H=0.4, d=d, knots=knots, seed=d)
        rp = lift_pl(path, gamma=0.3, level=level)
        for t in np.concatenate([rng.uniform(0.0, 1.0, 25), [1e-9, 1.0 - 1e-9]]):
            j = int(np.searchsorted(path.times, t)) - 1
            at_t = np.array([np.interp(t, path.times, path.values[:, c]) for c in range(d)])
            at_left = np.array([np.interp(path.times[j], path.times, path.values[:, c]) for c in range(d)])
            step = tensor_exp(TruncatedTensor.from_vector(at_t - at_left, level))
            want = rp.basepoints[j].convolve(step)
            assert max_coeff_diff(rp.basepoint_at(t).tensor, want.tensor) <= 1e-15, (d, t)


def test_generator_knots_must_be_the_basepoint_times():
    path = sample_fbm(H=0.6, d=2, knots=5, seed=1)
    rp = lift_pl(path, gamma=0.5)
    other = PiecewiseLinearPath(times=np.linspace(0.0, 1.0, 5) ** 2, values=path.values)
    with pytest.raises(ValueError, match="knots"):
        GeometricRoughPath(rp.gamma, rp.level, rp.times, rp.basepoints, generator=other)
