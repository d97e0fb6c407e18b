"""The Itô identity read from the composed lift, and the batched
flow-derivative check, against the routes they replace.

``ito_check`` reads each cell's compensated sum Σ_i Σ_v Γ_{v·i}φ⟨W, e_{v·i}⟩
from the one-cell expansions of ``compose(φ, X)``; the reference here is a
test-local copy of the old route, the rough integral of each Γ_iφ built by
``gamma_operator``.  ``partial_davie_check`` steps every window as a row of
one ``terminal_flow_jets`` call; the reference is a test-local copy of the
per-window ``solve_flow_jets`` / ``increment`` loop.  Also: the driver
dimension check of the flow-jet stepper, and the overflow check of
``verify_continuity``.
"""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughkit import jets, rde
from roughkit.algebra import Word
from roughkit.controlled import compose, rough_integral
from roughkit.errors import NumericalFailure
from roughkit.functions import PolynomialFunction, TrigPolynomial
from roughkit.jets import partial_davie_check, partial_davie_expansion, solve_flow_jets, terminal_flow_jets
from roughkit.rde import RdeSolution, VectorFieldSystem, derive_fields, gamma_operator, ito_check, solve_rde
from roughkit.regression import order_checks
from roughkit.roughpath import GeometricRoughPath, lift_pl, sample_fbm
from roughkit.rpde import ParticleMeasure, verify_continuity

GAMMAS = st.sampled_from([0.3, 0.4, 0.5])


def close(a, b, tol=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


def driver_for(d, gamma, knots, seed):
    return lift_pl(sample_fbm(H=min(0.95, gamma + 0.05), d=d, knots=knots, seed=seed), gamma=gamma)


def affine_fields(rng, d, n=2):
    return VectorFieldSystem([
        PolynomialFunction.affine(rng.normal(0, 0.5, (n, n)), rng.normal(0, 0.3, n)) for _ in range(d)
    ])


def random_phi(rng, trig):
    if trig:
        return TrigPolynomial(2, [[(rng.normal(), rng.normal(0, 1.5, 2), rng.uniform(0, 6.3)) for _ in range(3)]])
    terms = {(a, b): rng.normal() for a in range(4) for b in range(4 - a) if rng.uniform() > 0.4}
    return PolynomialFunction(2, [terms or {(1, 0): 1.0}])


def gamma_route_residual(phi, solution):
    """The replaced identity half of ``ito_check``: Σ_i ∫ Γ_iφ(X) dW^i by
    the rough integral of each ``gamma_operator`` composed with the lift
    (order capped at N_γ), against φ(X_t) − φ(X_0)."""
    X = solution.path.truncate(min(solution.path.order, solution.driver.hoelder_level))
    total = sum(
        rough_integral(compose(gamma_operator(Word((i,)), solution.system, phi, solution.table), X), i,
                       solution.times).values
        for i in range(1, solution.system.d + 1)
    )
    primal = compose(phi, solution.path).primal
    return float(np.max(np.abs(primal - primal[0] - total)))


def loop_partial_davie_check(x0, system, driver, alphas, n_spans, substeps, anchors, margin):
    """The replaced per-window loop of ``partial_davie_check``: one
    ``solve_flow_jets`` and one scalar ``increment`` per window."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    jet_order = max(len(a) for a in alphas)
    table = derive_fields(system, driver.level)
    spans, scale_ids, defects = [], [], []
    horizon = driver.horizon
    for m in range(n_spans):
        span = horizon * 0.5**m
        starts = np.linspace(0.0, horizon - span, anchors) if span < horizon else np.array([0.0])
        for s in starts:
            partition = np.linspace(s, s + span, substeps + 1)
            path = solve_flow_jets(x0, system, driver, partition, jet_order, table=table)
            g = driver.increment(float(s), float(s + span))
            defects.append([
                float(np.max(np.abs(path.derivative(a, index=-1) - partial_davie_expansion(table, x0, g, a))))
                for a in alphas
            ])
            spans.append(span)
            scale_ids.append(m)
    threshold = (driver.hoelder_level + 1) * driver.gamma
    return order_checks(
        "flow-derivative", alphas, np.array(defects), np.array(spans), np.array(scale_ids),
        [threshold] * len(alphas), margin,
    )


# ---------------------------------------------------------------------------
# The Itô identity from the lift.
# ---------------------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(
    d=st.integers(1, 2),
    gamma=GAMMAS,
    trig=st.booleans(),
    knots=st.sampled_from([9, 17, 33, 65]),
    seed=st.integers(0, 2**16),
)
def test_identity_residual_matches_gamma_route(d, gamma, trig, knots, seed):
    rng = np.random.default_rng(seed)
    driver = driver_for(d, gamma, knots, seed)
    solution = solve_rde(rng.normal(0, 0.5, 2), affine_fields(rng, d), driver, driver.times)
    phi = random_phi(rng, trig)
    got = ito_check(phi, solution).identity_residual
    want = gamma_route_residual(phi, solution)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_ito_and_fixed_point_residual_reach_no_gamma_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-point Γ route called")

    for owner, name in [(rde.GammaField, "partial"), (rde._DirectionalDerivative, "partial"),
                        (rde, "gamma_operator"), (rde, "gamma_by_composition"), (rde, "product_partial")]:
        monkeypatch.setattr(owner, name, refuse)
    monkeypatch.setattr("roughkit.functions.product_partial", refuse)
    rng = np.random.default_rng(5)
    driver = driver_for(2, 0.4, 33, 5)
    solution = solve_rde(np.array([0.2, -0.1]), affine_fields(rng, 2), driver, driver.times)
    report = ito_check(PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5, (1, 0): 0.2}]), solution)
    assert np.isfinite(report.identity_residual)
    assert np.isfinite(solution.fixed_point_residual())
    assert not hasattr(RdeSolution, "integral")


# ---------------------------------------------------------------------------
# partial_davie_check as one jet batch.
# ---------------------------------------------------------------------------

def _poly_fields_2d():
    return VectorFieldSystem([
        PolynomialFunction(2, [{(0, 1): 0.5, (0, 0): 0.1}, {(1, 0): -0.5}]),
        PolynomialFunction(2, [{(1, 0): 0.25}, {(0, 1): -0.25, (0, 0): 0.2}]),
    ])


@settings(max_examples=6, deadline=None)
@given(gamma=GAMMAS, n_spans=st.integers(2, 5), substeps=st.sampled_from([4, 8, 16]),
       anchors=st.integers(2, 6), seed=st.integers(0, 2**16))
def test_partial_davie_check_matches_window_loop(gamma, n_spans, substeps, anchors, seed):
    driver = driver_for(2, gamma, 33, seed)
    x0 = np.random.default_rng(seed).normal(0, 0.3, 2)
    alphas = [(1,), (2,), (1, 2), (2, 2)]
    got = partial_davie_check(x0, _poly_fields_2d(), driver, alphas, n_spans, substeps, anchors, 0.15)
    want = loop_partial_davie_check(x0, _poly_fields_2d(), driver, alphas, n_spans, substeps, anchors, 0.15)
    assert list(got) == list(want)
    for a in alphas:
        assert got[a].scales == want[a].scales
        assert close(got[a].defects, want[a].defects)
        assert got[a].passed == want[a].passed


def test_partial_davie_check_is_one_jet_batch(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-window route called")

    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[3]))
        return terminal_flow_jets(*args, **kwargs)

    monkeypatch.setattr(GeometricRoughPath, "increment", refuse)
    monkeypatch.setattr(jets, "solve_flow_jets", refuse)
    monkeypatch.setattr(jets, "terminal_flow_jets", counted)
    driver = driver_for(2, 0.5, 33, 7)
    report = partial_davie_check(np.array([0.25, -0.15]), _poly_fields_2d(), driver, [(1,), (1, 2)],
                                 n_spans=4, substeps=8, anchors=3)
    assert set(report) == {(1,), (1, 2)}
    assert calls == [1 + 3 * 3]
    assert "method" not in inspect.signature(partial_davie_check).parameters


@pytest.mark.parametrize("points", [1, 3])
def test_terminal_jets_of_partitions_with_different_ends(points):
    """Rows align by cell count from each partition's own last cell, so
    partitions of different lengths and ends step in one batch."""
    driver = driver_for(2, 0.4, 33, 13)
    system = _poly_fields_2d()
    table = derive_fields(system, driver.level)
    x0 = np.random.default_rng(13).normal(0, 0.3, (points, 2))
    partitions = [np.linspace(0.0, 0.5, 9), np.linspace(0.1, 0.93, 4), np.linspace(0.3, 1.0, 17),
                  np.array([0.2, 0.25]), np.linspace(0.05, 0.6, 9)]
    got = terminal_flow_jets(x0, system, driver, partitions, 3, table)
    for j, partition in enumerate(partitions):
        want = solve_flow_jets(x0, system, driver, partition, 3, table=table).blocks
        for p in range(4):
            assert close(got[p][j], want[p][-1])


@pytest.mark.parametrize("d", [1, 3])
def test_flow_jets_reject_a_driver_of_another_dimension(d):
    system = VectorFieldSystem([PolynomialFunction.affine(np.eye(2)), PolynomialFunction.affine(-np.eye(2))])
    driver = driver_for(d, 0.5, 9, 1)
    with pytest.raises(ValueError, match="driver dimension must match the number of fields"):
        terminal_flow_jets(np.zeros((1, 2)), system, driver, [driver.times], 1)
    with pytest.raises(ValueError, match="driver dimension must match the number of fields"):
        solve_flow_jets(np.zeros(2), system, driver, driver.times, 1)


# ---------------------------------------------------------------------------
# verify_continuity on a diverged cloud.
# ---------------------------------------------------------------------------

def test_verify_continuity_names_an_overflowing_particle():
    driver = driver_for(2, 0.4, 17, 3)
    fields = VectorFieldSystem([PolynomialFunction.affine(np.array([[0.0, 0.5], [-0.5, 0.0]])),
                                PolynomialFunction.affine(np.array([[0.2, 0.0], [0.0, -0.2]]))])
    good = ParticleMeasure(np.array([[0.1, 0.2], [-0.3, 0.4]]))
    diverged = ParticleMeasure(np.array([[0.1, 0.2], [-0.3, 0.4], [1e90, 0.0]]))
    phi = PolynomialFunction(2, [{(4, 0): 1.0}])
    time_grid = np.linspace(0.0, 1.0, 33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=r"t=0\.5, particle 2"):
            verify_continuity(fields, driver, lambda t: diverged if t >= 0.5 else good, [phi], time_grid)
