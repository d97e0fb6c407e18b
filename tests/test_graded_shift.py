"""One graded-shift kernel and one order-check helper for the verifiers.

``check_controlled``, ``controlled_norms``, the graded half of ``ito_check``,
``verify_transport`` and ``verify_continuity`` compute Σ_v ⟨W_{st}, e_v⟩
c_{v·w} (or c_{w·v}) for every pair and word with ``graded_shift``, and turn
per-pair defects into order checks with ``order_checks``.  Each is compared
here with a test-local copy of the per-pair, per-word loop it replaced.
Also covered: the shift table itself, the unchecked ``Word`` constructor,
the removed ``words`` parameter, ``coordinate_lift`` from one increments
batch, and that importing the CLI leaves the selftest module unloaded.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughkit
import roughkit.rpde as rpde
from roughkit.algebra import Word, _letter_index, graded_shift, shift_table, words_up_to
from roughkit.controlled import (
    ControlledPath,
    _remainders,
    check_controlled,
    compose,
    controlled_norms,
    coordinate_lift,
)
from roughkit.functions import PolynomialFunction
from roughkit.rde import VectorFieldSystem, ito_check, solve_rde
from roughkit.regression import SLOPE_MARGIN, check_order, dyadic_pairs
from roughkit.roughpath import GeometricRoughPath, lift_pl, sample_fbm
from roughkit.rpde import (
    FlowSolutionOracle,
    ParticleMeasure,
    TransportProblem,
    _gamma_values_from_oracle,
    push_measure,
    verify_continuity,
    verify_transport,
)

GAMMAS = st.sampled_from([0.3, 0.4, 0.5])


def driver_for(d, gamma, knots, seed):
    return lift_pl(sample_fbm(H=min(0.95, gamma + 0.05), d=d, knots=knots, seed=seed), gamma=gamma)


def random_fields(rng, d, n=2):
    """d affine fields on R^n.  Affine fields cannot blow up in finite time;
    quadratic ones can, and the overflowing Γ values then give NaN defects,
    which the replaced continuity loop dropped (see the NaN test below)."""
    return VectorFieldSystem([
        PolynomialFunction.affine(rng.normal(0, 0.5, (n, n)), rng.normal(0, 0.3, n)) for _ in range(d)
    ])


def random_controlled(rng, driver, on_grid, points):
    """Random coefficients of the top order on the driver's knots or on
    random off-grid times, with about a third of the words absent."""
    if on_grid:
        times = driver.times[:: max(1, (len(driver.times) - 1) // (points - 1))]
    else:
        times = np.sort(rng.uniform(0.0, driver.horizon, points))
    order = driver.hoelder_level + 1
    words = words_up_to(driver.dim, order - 1)
    coeffs = {w: rng.normal(size=(len(times), 2)) for w in words if rng.uniform() > 0.35}
    return ControlledPath(driver, order, 2, times, coeffs)


def close(a, b, tol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


def assert_same_checks(got, want, defect_scale=1.0):
    """Same keys, names, thresholds and pass flags; defects to
    1e-12·max(1, scale) and spans to 1e-15 relative."""
    assert list(got) == list(want)
    for key, w in want.items():
        g = got[key]
        assert (g.name, g.threshold, g.margin, g.passed) == (w.name, w.threshold, w.margin, w.passed)
        np.testing.assert_allclose(g.scales, w.scales, rtol=1e-15, atol=0.0)
        assert len(g.defects) == len(w.defects)
        assert np.max(np.abs(np.subtract(g.defects, w.defects)), initial=0.0) <= 1e-12 * max(1.0, defect_scale)


# ---------------------------------------------------------------------------
# Test-local copies of the replaced loops.
# ---------------------------------------------------------------------------

def loop_remainder(X, i, j):
    """R_w(t_i, t_j) by one scalar increment and one lookup per word pair."""
    inc = X.reference.increment(X.times[i], X.times[j])
    n = X.order
    out = {}
    for w in words_up_to(X.dim, n - 1):
        acc = np.zeros(X.width)
        for v in words_up_to(X.dim, n - 1 - len(w)):
            c = inc.coeff(v)
            if c != 0.0:
                arr = X.coeffs.get(v + w)
                if arr is not None:
                    acc = acc + c * arr[i]
        out[w] = X.coeff(w)[j] - acc
    return out


def loop_controlled_norms(X):
    gamma = X.reference.gamma
    n = X.order
    sups = {w: 0.0 for w in words_up_to(X.dim, n - 1)}
    for i in range(len(X.times)):
        for j in range(i + 1, len(X.times)):
            span = X.times[j] - X.times[i]
            for w, r in loop_remainder(X, i, j).items():
                sups[w] = max(sups[w], float(np.max(np.abs(r))) / span ** ((n - len(w)) * gamma))
    seminorm = float(sum(sups.values()))
    initial = max(float(np.max(np.abs(X.coeff(w)[0]))) for w in words_up_to(X.dim, n - 1))
    return seminorm, initial + seminorm, sups


def loop_check_controlled(X, margin=SLOPE_MARGIN, max_scales=None, min_pairs=8):
    gamma = X.reference.gamma
    n = X.order
    spans = []
    defects = {w: [] for w in words_up_to(X.dim, n - 1)}
    for stride, pairs in dyadic_pairs(len(X.times), max_scales=max_scales, min_pairs=min_pairs):
        acc = {w: 0.0 for w in defects}
        span_acc = 0.0
        for i, j in pairs:
            for w, r in loop_remainder(X, i, j).items():
                acc[w] += float(np.max(np.abs(r)))
            span_acc += X.times[j] - X.times[i]
        spans.append(span_acc / len(pairs))
        for w in defects:
            defects[w].append(acc[w] / len(pairs))
    return {
        w: check_order(f"remainder[{','.join(map(str, w.letters)) or 'ε'}]", spans, defects[w],
                       threshold=(n - len(w)) * gamma, margin=margin)
        for w in defects
    }


def loop_pair_coeffs(driver, times, scales):
    """⟨W_{t_i t_j}, e_v⟩ for every word v in canonical order, per pair."""
    return {pair: driver.increment(times[pair[0]], times[pair[1]]).tensor.array.tolist()
            for _, pairs in scales for pair in pairs}


def loop_ito_graded(phi, solution, margin=SLOPE_MARGIN):
    driver = solution.driver
    n_gamma = driver.hoelder_level
    lifted = compose(phi, solution.path)
    times = solution.times
    scales = dyadic_pairs(len(times), min_pairs=8)
    coeffs = loop_pair_coeffs(driver, times, scales)
    graded = {}
    for w in words_up_to(driver.dim, n_gamma):
        spans, defects = [], []
        for stride, pairs in scales:
            cell = []
            for i, j in pairs:
                expansion = np.zeros(1)
                for v, c in zip(words_up_to(driver.dim, n_gamma - len(w)), coeffs[(i, j)]):
                    if c != 0.0:
                        expansion = expansion + c * lifted.coeff(v + w)[i]
                cell.append(float(np.max(np.abs(lifted.coeff(w)[j] - expansion))))
            spans.append(float(np.mean([times[j] - times[i] for i, j in pairs])))
            defects.append(float(np.mean(cell)))
        graded[w] = check_order(f"ito[{','.join(map(str, w.letters)) or 'ε'}]", spans, defects,
                                threshold=(n_gamma + 1 - len(w)) * driver.gamma, margin=margin)
    return graded


def loop_time_pairs(time_grid, anchors_per_scale, min_pairs=4):
    out = []
    for stride, pairs in dyadic_pairs(len(time_grid), min_pairs=min_pairs):
        if len(pairs) > anchors_per_scale:
            chosen = np.linspace(0, len(pairs) - 1, anchors_per_scale).round().astype(int)
            pairs = [pairs[i] for i in chosen]
        span = float(np.mean([time_grid[j] - time_grid[i] for i, j in pairs]))
        out.append((span, pairs))
    return out


def loop_verify_transport(problem, u_oracle, space_grid, time_grid, anchors_per_scale):
    """Per-point Γ_w u values, then the per-pair, per-word defect loop."""
    driver = problem.driver
    n_gamma = driver.hoelder_level
    table = rpde.derive_fields(problem.fields, max(driver.level, n_gamma))
    all_words = words_up_to(driver.dim, n_gamma)
    scales = loop_time_pairs(time_grid, anchors_per_scale)
    needed_times = sorted({time_grid[i] for _, pairs in scales for pair in pairs for i in pair})
    coeffs = loop_pair_coeffs(driver, time_grid, scales)
    at = {}
    for t in needed_times:
        rows = []
        for x in space_grid:
            gv = _gamma_values_from_oracle(table, u_oracle(t, x), x, table.values_at(x), n_gamma)
            rows.append([gv[w] for w in all_words])
        at[t] = np.array(rows)
    index = {w: k for k, w in enumerate(all_words)}
    checks = {}
    for w in all_words:
        tail = [index[w + v] for v in words_up_to(driver.dim, n_gamma - len(w))]
        spans, defects = [], []
        for span, pairs in scales:
            vals = []
            for i, j in pairs:
                rhs = at[time_grid[j]][:, tail] @ np.asarray(coeffs[(i, j)][: len(tail)])
                vals.append(float(np.max(np.abs(at[time_grid[i]][:, index[w]] - rhs))))
            spans.append(span)
            defects.append(float(np.mean(vals)))
        checks[w] = check_order(f"transport[{','.join(map(str, w.letters)) or 'ε'}]", spans, defects,
                                threshold=(n_gamma + 1 - len(w)) * driver.gamma, margin=SLOPE_MARGIN)
    return checks, max(float(np.abs(a).max()) for a in at.values())


def loop_verify_continuity(fields, driver, rho, phis, time_grid, anchors_per_scale):
    """Per-(time, φ) pairings, then the per-pair, per-word, per-φ loop."""
    n_gamma = driver.hoelder_level
    table = rpde.derive_fields(fields, max(driver.level, n_gamma))
    words = words_up_to(driver.dim, n_gamma)
    scales = loop_time_pairs(time_grid, anchors_per_scale)
    needed_times = sorted({time_grid[i] for _, pairs in scales for pair in pairs for i in pair})
    coeffs = loop_pair_coeffs(driver, time_grid, scales)
    pairings = {}
    for t in needed_times:
        measure = rho(t)
        f_values = table.values_at(measure.points)
        for p_idx, phi in enumerate(phis):
            gv = _gamma_values_from_oracle(table, phi, measure.points, f_values, n_gamma)
            pairings[(t, p_idx)] = {w: float(measure.weights @ v) for w, v in gv.items()}
    checks = {}
    for w in words:
        spans, defects = [], []
        for span, pairs in scales:
            vals = []
            for i, j in pairs:
                s, t = time_grid[i], time_grid[j]
                worst = 0.0
                for p_idx in range(len(phis)):
                    rhs = 0.0
                    for v, c in zip(words_up_to(driver.dim, n_gamma - len(w)), coeffs[(i, j)]):
                        if c != 0.0:
                            rhs += c * pairings[(s, p_idx)][v + w]
                    worst = max(worst, abs(pairings[(t, p_idx)][w] - rhs))
                vals.append(worst)
            spans.append(span)
            defects.append(float(np.mean(vals)))
        checks[w] = check_order(f"continuity[{','.join(map(str, w.letters)) or 'ε'}]", spans, defects,
                                threshold=(n_gamma + 1 - len(w)) * driver.gamma, margin=SLOPE_MARGIN)
    return checks, max(abs(v) for p in pairings.values() for v in p.values())


def time_dependent_oracle(t, x):
    """A candidate u_t: a quadratic whose coefficients move with t."""
    return PolynomialFunction(2, [{(2, 0): 1.0 + t, (0, 1): np.sin(3.0 * t), (1, 1): t * t, (0, 0): 0.1}])


# ---------------------------------------------------------------------------
# The kernel and its table.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_shift_table_indexes_concatenations(d, level):
    words = words_up_to(d, level)
    index = _letter_index(d, level)
    for prepend in (True, False):
        table = shift_table(d, level, prepend)
        for r, w in enumerate(words):
            for c, v in enumerate(words):
                want = -1 if len(v) + len(w) > level else index[(v + w if prepend else w + v).letters]
                assert table[r, c] == want


@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 3), level=st.integers(1, 4), extra=st.integers(0, 1), seed=st.integers(0, 2**16))
def test_graded_shift_matches_word_sums(d, level, extra, seed):
    rng = np.random.default_rng(seed)
    words = words_up_to(d, level)
    incs = rng.normal(size=(3, len(words_up_to(d, level + extra))))
    coeffs = rng.normal(size=(3, len(words), 2))
    for prepend in (True, False):
        got = graded_shift(incs, coeffs, d, level, prepend)
        index = _letter_index(d, level)
        for p in range(3):
            for r, w in enumerate(words):
                want = sum(incs[p, c] * coeffs[p, index[(v + w if prepend else w + v).letters]]
                           for c, v in enumerate(words) if len(v) + len(w) <= level)
                assert close(got[p, r], want + np.zeros(2), 1e-13)


# ---------------------------------------------------------------------------
# The verifiers against the loops.
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 3), gamma=GAMMAS, on_grid=st.booleans(), lift=st.booleans(), seed=st.integers(0, 2**16))
def test_controlled_checks_and_norms_match_loops(d, gamma, on_grid, lift, seed):
    rng = np.random.default_rng(seed)
    driver = driver_for(d, gamma, 33, seed)
    if lift:
        X = compose(PolynomialFunction(1, [{(2,): 1.0}, {(1,): -0.5}]), coordinate_lift(driver, 1 + seed % d))
        if not on_grid:
            X = X.restrict(np.sort(rng.choice(len(X.times), 17, replace=False)))
    else:
        X = random_controlled(rng, driver, on_grid, 17)
    scale = max(1.0, float(np.abs(X.stacked).max()))
    for i, j in [(0, 1), (2, 9), (0, len(X.times) - 1)]:
        want = loop_remainder(X, i, j)
        got = _remainders(X, np.array([i]), np.array([j]))[0]
        assert close(got, np.stack([want[w] for w in want]), 1e-12 * scale)
    assert_same_checks(check_controlled(X, min_pairs=2), loop_check_controlled(X, min_pairs=2), scale)
    assert_same_checks(check_controlled(X, min_pairs=4, max_scales=2),
                       loop_check_controlled(X, min_pairs=4, max_scales=2), scale)
    norms = controlled_norms(X)
    seminorm, norm, sups = loop_controlled_norms(X)
    assert list(norms.per_word) == list(sups)
    assert close(list(norms.per_word.values()), list(sups.values()), 1e-12 * scale)
    assert close(norms.seminorm, seminorm, 1e-12 * scale) and close(norms.norm, norm, 1e-12 * scale)


@settings(max_examples=12, deadline=None)
@given(d=st.integers(1, 3), gamma=GAMMAS, seed=st.integers(0, 2**16))
def test_ito_graded_matches_loop(d, gamma, seed):
    rng = np.random.default_rng(seed)
    driver = driver_for(d, gamma, 33, seed)
    sol = solve_rde(np.array([0.2, -0.1]), random_fields(rng, d), driver, driver.times)
    phi = PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5, (1, 0): 0.2}])
    got = ito_check(phi, sol, identity=False).graded
    scale = float(np.abs(compose(phi, sol.path).stacked).max())
    assert_same_checks(got, loop_ito_graded(phi, sol), scale)


@settings(max_examples=10, deadline=None)
@given(d=st.integers(1, 3), gamma=GAMMAS, seed=st.integers(0, 2**16))
def test_verify_transport_matches_loop(d, gamma, seed):
    rng = np.random.default_rng(seed)
    driver = driver_for(d, gamma, 17, seed)
    problem = TransportProblem(fields=random_fields(rng, d), terminal=time_dependent_oracle(0.0, None),
                               driver=driver)
    grid = [rng.uniform(-0.5, 0.5, 2) for _ in range(3)]
    time_grid = np.linspace(0.0, 1.0, 33)
    got = verify_transport(problem, time_dependent_oracle, grid, time_grid, anchors_per_scale=3)
    want, scale = loop_verify_transport(problem, time_dependent_oracle, grid, time_grid, 3)
    assert_same_checks(got.checks, want, scale)


def test_verify_transport_flow_oracle_matches_loop():
    driver = driver_for(2, 0.3, 17, 5)
    problem = TransportProblem(fields=random_fields(np.random.default_rng(5), 2),
                               terminal=PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5, (1, 0): 0.2}]),
                               driver=driver)
    oracle = FlowSolutionOracle(problem, mesh=1.0 / 32.0)
    grid = [np.array([a, b]) for a in (-0.3, 0.3) for b in (-0.2, 0.4)]
    time_grid = np.linspace(0.0, 1.0, 33)
    got = verify_transport(problem, oracle, grid, time_grid, anchors_per_scale=3)
    want, scale = loop_verify_transport(problem, oracle, grid, time_grid, 3)
    assert_same_checks(got.checks, want, scale)


@settings(max_examples=10, deadline=None)
@given(d=st.integers(1, 3), gamma=GAMMAS, frozen=st.booleans(), seed=st.integers(0, 2**16))
def test_verify_continuity_matches_loop(d, gamma, frozen, seed):
    rng = np.random.default_rng(seed)
    driver = driver_for(d, gamma, 17, seed)
    fields = random_fields(rng, d)
    mu = ParticleMeasure(rng.normal(0.0, 0.4, (5, 2)), rng.uniform(0.5, 1.5, 5))
    time_grid = np.linspace(0.0, 1.0, 33)
    rho = (lambda t: mu) if frozen else push_measure(fields, driver, mu, time_grid, mesh=1.0 / 32.0)
    phis = [PolynomialFunction(2, [{(1, 0): 1.0}]), PolynomialFunction(2, [{(1, 1): 1.0, (0, 2): -0.3}])]
    got = verify_continuity(fields, driver, rho, phis, time_grid, anchors_per_scale=4)
    want, scale = loop_verify_continuity(fields, driver, rho, phis, time_grid, 4)
    assert_same_checks(got.checks, want, scale)


def test_verify_continuity_fails_on_a_nan_test_function():
    """The replaced loop took the max over test functions with Python's
    ``max``, which drops NaN: a NaN-valued φ beside a good one passed."""
    driver = driver_for(2, 0.4, 17, 3)
    fields = VectorFieldSystem([PolynomialFunction.affine(np.array([[0.0, 0.5], [-0.5, 0.0]])),
                                PolynomialFunction.affine(np.array([[0.2, 0.0], [0.0, -0.2]]))])
    mu = ParticleMeasure(np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.1]]))
    time_grid = np.linspace(0.0, 1.0, 65)
    evolution = push_measure(fields, driver, mu, time_grid, mesh=1.0 / 64.0)
    good = PolynomialFunction(2, [{(2, 0): 0.5, (0, 1): 1.0}])
    bad = PolynomialFunction(2, [{(1, 0): float("nan")}])
    assert verify_continuity(fields, driver, evolution, [good], time_grid).passed
    report = verify_continuity(fields, driver, evolution, [good, bad], time_grid)
    assert not any(c.passed for c in report.checks.values())


# ---------------------------------------------------------------------------
# Structure: no scalar increments and no Word in the defect stage.
# ---------------------------------------------------------------------------

def test_verifiers_build_no_word_and_take_no_scalar_increment(monkeypatch):
    rng = np.random.default_rng(11)
    driver = driver_for(2, 0.3, 33, 11)
    fields = random_fields(rng, 2)
    X = random_controlled(rng, driver, True, 17)
    sol = solve_rde(np.array([0.2, -0.1]), fields, driver, driver.times)
    phi = PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5}])
    problem = TransportProblem(fields=fields, terminal=phi, driver=driver)
    oracle = FlowSolutionOracle(problem, mesh=1.0 / 32.0)
    mu = ParticleMeasure(rng.normal(0.0, 0.4, (4, 2)))
    time_grid = np.linspace(0.0, 1.0, 33)
    evolution = push_measure(fields, driver, mu, time_grid, mesh=1.0 / 32.0)
    grid = [np.array([0.1, -0.2]), np.array([-0.3, 0.2])]
    calls = [
        lambda: check_controlled(X),
        lambda: controlled_norms(X),
        lambda: ito_check(phi, sol, identity=False),
        lambda: verify_transport(problem, oracle, grid, time_grid, anchors_per_scale=3),
        lambda: verify_continuity(fields, driver, evolution, [phi], time_grid),
    ]

    def no_increment(self, s, t):
        raise AssertionError("scalar increment called")

    monkeypatch.setattr(GeometricRoughPath, "increment", no_increment)
    for call in calls:
        call()  # warm the word-keyed caches

    built = []
    counting = [True]
    init, of, derive = Word.__init__, Word._of.__func__, rpde.derive_fields

    def counted_init(self, letters=()):
        if counting[0]:
            built.append("Word")
        init(self, letters)

    def counted_of(cls, letters):
        if counting[0]:
            built.append("Word._of")
        return of(cls, letters)

    def derive_uncounted(*args):
        # Building a derived-field table walks its words: set-up, not defects.
        counting[0] = False
        try:
            return derive(*args)
        finally:
            counting[0] = True

    monkeypatch.setattr(Word, "__init__", counted_init)
    monkeypatch.setattr(Word, "_of", classmethod(counted_of))
    monkeypatch.setattr(rpde, "derive_fields", derive_uncounted)
    for call in calls:
        call()
    assert built == []


# ---------------------------------------------------------------------------
# Satellites: the words parameter, Word validation, coordinate_lift, imports.
# ---------------------------------------------------------------------------

def test_verifiers_take_no_word_subset_and_cover_every_word():
    driver = driver_for(2, 0.4, 17, 3)
    fields = random_fields(np.random.default_rng(3), 2)
    phi = PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5}])
    problem = TransportProblem(fields=fields, terminal=phi, driver=driver)
    time_grid = np.linspace(0.0, 1.0, 33)
    mu = ParticleMeasure(np.array([[0.1, 0.2], [-0.2, 0.3]]))
    grid = [np.array([0.1, -0.2])]
    with pytest.raises(TypeError):
        verify_transport(problem, time_dependent_oracle, grid, time_grid, words=[])
    with pytest.raises(TypeError):
        verify_continuity(fields, driver, lambda t: mu, [phi], time_grid, words=[])
    every = list(words_up_to(2, driver.hoelder_level))
    assert list(verify_transport(problem, time_dependent_oracle, grid, time_grid).checks) == every
    frozen = verify_continuity(fields, driver, lambda t: mu, [phi], time_grid)
    assert list(frozen.checks) == every and not frozen.passed
    with pytest.raises(ValueError, match="test function"):
        verify_continuity(fields, driver, lambda t: mu, [], time_grid)
    short = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="no scale"):
        verify_transport(problem, time_dependent_oracle, grid, short)
    with pytest.raises(ValueError, match="no scale"):
        verify_continuity(fields, driver, lambda t: mu, [phi], short)


def test_word_checks_outside_letters_and_internal_words_agree():
    for letters in [(0,), (-1, 2), (1, 0, 3)]:
        with pytest.raises(ValueError):
            Word(letters)
    w = Word((1, 2, 3))
    assert w[1:] == Word((2, 3)) and hash(w[1:]) == hash(Word((2, 3)))
    assert w + Word((2,)) == Word((1, 2, 3, 2)) and w.reversed() == Word((3, 2, 1))
    assert all(type(u) is Word for u in (w[:2], w + w, w.reversed()))
    assert words_up_to(2, 2)[3:] == tuple(Word(t) for t in [(1, 1), (1, 2), (2, 1), (2, 2)])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_coordinate_lift_matches_per_knot_increments(d):
    driver = driver_for(d, 0.4, 33, d)
    for letter in range(1, d + 1):
        want = np.array([[driver.increment(0.0, t).coeff(Word((letter,)))] for t in driver.times])
        assert np.array_equal(coordinate_lift(driver, letter).primal, want)
    with pytest.raises(ValueError, match="letter"):
        coordinate_lift(driver, d + 1)


def test_importing_the_cli_leaves_selftest_unloaded():
    src = os.path.dirname(os.path.dirname(roughkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, roughkit.cli; print(sorted(m for m in sys.modules if m.startswith('roughkit.')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "roughkit.cli" in out.stdout and "roughkit.selftest" not in out.stdout
