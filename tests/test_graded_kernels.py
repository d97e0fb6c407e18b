"""Derivative stacks and the compiled graded-expansion kernel.

The family hooks behind ``SmoothFunction.deriv_tensors`` (the trig phase
matmul and the polynomial monomial sweep) are checked against a per-α loop
kept here, and each site of the graded-expansion kernel against its oracle
route: ``values_at`` against the recursion route, Γ_w values against
``GammaField`` and ``compose`` against the per-tuple loop it replaced.  All
comparisons are to 1e-12·max(1, scale).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughkit.controlled
import roughkit.functions
import roughkit.jets
import roughkit.rde
import roughkit.rpde
from roughkit.algebra import EMPTY_WORD, Word, deshuffles, words_up_to
from roughkit.controlled import ControlledPath, compose
from roughkit.functions import JetFunction, PolynomialFunction, SmoothFunction, TrigPolynomial
from roughkit.rde import GammaField, VectorFieldSystem, derive_fields
from roughkit.roughpath import lift_pl, sample_fbm
from roughkit.rpde import _gamma_values_from_oracle


def close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


def symmetric_fill(xs, n_in, n_out, k, partial):
    """The (m, n_out) + (n_in,)*k tensor from ``partial(xs, alpha)`` per
    sorted α, copied to every permutation."""
    out = np.empty((len(xs), n_out) + (n_in,) * k)
    for alpha in itertools.combinations_with_replacement(range(1, n_in + 1), k):
        vals = partial(xs, alpha)
        for perm in set(itertools.permutations(alpha)):
            out[(slice(None), slice(None)) + tuple(a - 1 for a in perm)] = vals
    return out


def trig_reference(fn: TrigPolynomial, xs, k):
    """Each ∂_j scales a term by k_j and shifts its phase by π/2."""

    def partial(xs, alpha):
        vals = np.zeros((len(xs), fn.n_out))
        for j, comp in enumerate(fn.components):
            for a, wave, phase in comp:
                amp = a
                for letter in alpha:
                    amp *= wave[letter - 1]
                vals[:, j] += amp * np.sin(xs @ np.asarray(wave) + phase + len(alpha) * math.pi / 2.0)
        return vals

    return symmetric_fill(xs, fn.n_in, fn.n_out, k, partial)


def poly_reference(fn: PolynomialFunction, xs, k):
    """Monomial by monomial: ∂^α x^e = Π_j e_j!/(e_j−α_j)! x^{e−α}."""

    def partial(xs, alpha):
        counts = [alpha.count(j + 1) for j in range(fn.n_in)]
        vals = np.zeros((len(xs), fn.n_out))
        for c, comp in enumerate(fn.components):
            for expo, coeff in comp.items():
                if any(a > e for a, e in zip(counts, expo)):
                    continue
                term = np.full(len(xs), coeff)
                for j, (a, e) in enumerate(zip(counts, expo)):
                    term = term * math.perm(e, a) * xs[:, j] ** (e - a)
                vals[:, c] += term
        return vals

    return symmetric_fill(xs, fn.n_in, fn.n_out, k, partial)


# ---------------------------------------------------------------------------
# Family hooks.
# ---------------------------------------------------------------------------

finite = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def trig_functions(draw):
    n_in = draw(st.integers(1, 3))
    components = [
        [
            (draw(finite), [draw(finite) for _ in range(n_in)], draw(st.floats(0.0, 6.3)))
            for _ in range(draw(st.integers(0, 3)))
        ]
        for _ in range(draw(st.integers(1, 3)))
    ]
    return TrigPolynomial(n_in, components)


@st.composite
def polynomials(draw):
    n_in = draw(st.integers(1, 3))
    components = [
        {tuple(draw(st.integers(0, 4)) for _ in range(n_in)): draw(finite) for _ in range(draw(st.integers(0, 4)))}
        for _ in range(draw(st.integers(1, 3)))
    ]
    return PolynomialFunction(n_in, components)


def check_hook(fn, reference, k, m, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.5, 1.5, (m, fn.n_in))
    want = reference(fn, xs, k)
    assert close(fn.deriv_tensors(xs, k), want)
    for x, row in zip(xs, want):
        assert close(fn.deriv_tensor(x, k), row)


@settings(max_examples=60, deadline=None, database=None)
@given(trig_functions(), st.integers(0, 4), st.integers(1, 5), st.integers(0, 2**16))
def test_trig_deriv_tensors_match_per_alpha_loop(fn, k, m, seed):
    check_hook(fn, trig_reference, k, m, seed)


@settings(max_examples=60, deadline=None, database=None)
@given(polynomials(), st.integers(0, 4), st.integers(1, 5), st.integers(0, 2**16))
def test_polynomial_deriv_tensors_match_per_alpha_loop(fn, k, m, seed):
    check_hook(fn, poly_reference, k, m, seed)


@pytest.mark.parametrize("k", range(5))
def test_hooks_on_empty_trig_component_and_zero_polynomial(k):
    trig = TrigPolynomial(2, [[], [(0.5, [1.0, -2.0], 0.3)], []])
    check_hook(trig, trig_reference, k, 3, k)
    assert not np.any(trig.deriv_tensors(np.ones((3, 2)), k)[:, [0, 2]])
    zero = PolynomialFunction.zero(3, 2)
    check_hook(zero, poly_reference, k, 3, k)
    assert not np.any(zero.deriv_tensors(np.ones((3, 3)), k))
    # Every partial of a linear map beyond order 1 vanishes.
    linear = PolynomialFunction.affine([[1.0, 2.0], [3.0, -1.0]], [0.5, 0.0])
    check_hook(linear, poly_reference, k, 2, k)


def smooth_function_classes():
    found, todo = [], [SmoothFunction]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [c for c in found if c.__module__.startswith("roughkit.")]


def test_every_family_uses_the_shared_deriv_tensors():
    # The benchmark's span `functions.deriv_tensors` wraps the base method;
    # an override would move derivative time out of it unseen.
    modules = (roughkit.functions, roughkit.rde, roughkit.jets, roughkit.rpde, roughkit.controlled)
    assert modules  # imported so that every built-in family is registered
    classes = smooth_function_classes()
    assert TrigPolynomial in classes and PolynomialFunction in classes and JetFunction in classes
    assert len(classes) >= 9
    for cls in classes:
        assert cls.deriv_tensors is SmoothFunction.deriv_tensors, cls.__name__


# ---------------------------------------------------------------------------
# JetFunction anchor check.
# ---------------------------------------------------------------------------

def test_jet_function_rejects_off_anchor_and_non_finite_queries():
    anchor = np.array([0.25, -1.0])
    jet = JetFunction(anchor, np.array([2.0]), {(1,): np.array([3.0]), (2,): np.array([4.0])}, 1)
    assert jet.value(anchor + 5e-10)[0] == 2.0
    assert jet.partial(anchor, (2,))[0] == 4.0
    for bad in (anchor + [0.0, 2e-9], anchor + [-1.0, 0.0], [np.nan, -1.0], [0.25, np.inf], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="anchor"):
            jet.value(bad)
        with pytest.raises(ValueError, match="anchor"):
            jet.partial(bad, (1,))
    with pytest.raises(ValueError):
        jet.value([0.25])


# ---------------------------------------------------------------------------
# Kernel sites against their oracle routes.
# ---------------------------------------------------------------------------

def random_function(rng, n_in, n_out, family):
    if family == "polynomial":
        return PolynomialFunction(n_in, [
            {e: float(rng.normal(0.0, 0.5)) for e in itertools.product(range(3), repeat=n_in)
             if sum(e) <= 2 and rng.random() < 0.6}
            for _ in range(n_out)
        ])
    return TrigPolynomial(n_in, [
        [(float(rng.uniform(0.2, 0.6)), rng.normal(0.0, 1.0, n_in), float(rng.uniform(0, 6.3)))
         for _ in range(int(rng.integers(1, 3)))]
        for _ in range(n_out)
    ])


def random_system(rng, d, n, family):
    return VectorFieldSystem([random_function(rng, n, n, family) for _ in range(d)])


sites = st.fixed_dictionaries({
    "d": st.integers(1, 3),
    "depth": st.integers(1, 4),
    "n": st.integers(1, 2),
    "m": st.integers(1, 4),
    "family": st.sampled_from(["polynomial", "trig"]),
    "seed": st.integers(0, 2**16),
})


@settings(max_examples=40, deadline=None, database=None)
@given(sites)
def test_values_at_matches_recursion_route(case):
    rng = np.random.default_rng(case["seed"])
    table = derive_fields(random_system(rng, case["d"], case["n"], case["family"]), case["depth"])
    xs = rng.uniform(-0.8, 0.8, (case["m"], case["n"]))
    got, want = table.values_at(xs), table.recursion_values_at(xs)
    assert list(got) == list(table.words)
    for w in table.words:
        assert close(got[w], want[w]), w
    single = table.values_at(xs[0])
    for w in table.words:
        assert close(single[w], want[w][0]), w


@settings(max_examples=30, deadline=None, database=None)
@given(sites)
def test_gamma_values_match_gamma_field(case):
    rng = np.random.default_rng(case["seed"])
    table = derive_fields(random_system(rng, case["d"], case["n"], case["family"]), case["depth"])
    phi = random_function(rng, case["n"], 1, case["family"])
    xs = rng.uniform(-0.8, 0.8, (case["m"], case["n"]))
    got = _gamma_values_from_oracle(table, phi, xs, table.values_at(xs), case["depth"])
    assert list(got) == list(table.words)
    for w in table.words:
        want = [GammaField(w, table, phi).value(x)[0] if len(w) else phi.value(x)[0] for x in xs]
        assert close(got[w], want), w
    single = _gamma_values_from_oracle(table, phi, xs[0], table.values_at(xs[0]), case["depth"])
    assert all(isinstance(v, float) and close(v, got[w][0]) for w, v in single.items())


def compose_reference(phi, X):
    """The per-tuple loop over deshuffles that ``compose`` used to run."""
    xs, m = X.primal, len(X.times)
    out = {EMPTY_WORD: phi.values(xs)}
    for w in words_up_to(X.dim, X.order - 1)[1:]:
        acc = np.zeros((m, phi.n_out))
        for k in range(1, len(w) + 1):
            tensor = phi.deriv_tensors(xs, k)
            for parts, mult in deshuffles(w, k).weights.items():
                if any(u not in X.coeffs for u in parts):
                    continue
                term = tensor
                for u in parts:
                    term = (term * X.coeffs[u].reshape((m,) + (1,) * (term.ndim - 2) + (X.width,))).sum(axis=-1)
                acc += (mult / math.factorial(k)) * term
        if np.any(acc != 0.0):
            out[w] = acc
    return out


@settings(max_examples=40, deadline=None, database=None)
@given(sites, st.floats(0.0, 0.7))
def test_compose_matches_per_tuple_loop(case, absent):
    rng = np.random.default_rng(case["seed"])
    d, n, order = case["d"], case["n"], case["depth"] + 1
    driver = lift_pl(sample_fbm(H=0.6, d=d, knots=case["m"] + 1, seed=case["seed"]), gamma=0.24, level=4)
    times = driver.times
    coeffs = {w: rng.uniform(-1.0, 1.0, (len(times), n)) for w in words_up_to(d, order - 1)
              if len(w) == 0 or rng.random() >= absent}
    X = ControlledPath(driver, order, n, times, coeffs)
    phi = random_function(rng, n, int(rng.integers(1, 3)), case["family"])
    got, want = compose(phi, X), compose_reference(phi, X)
    assert set(got.coeffs) <= set(want)
    for w in words_up_to(d, order - 1):
        assert close(got.coeff(w), want.get(w, np.zeros((len(times), phi.n_out)))), w


def test_compose_skips_arities_with_absent_parts():
    calls = []

    class Counting(TrigPolynomial):
        def _sorted_partials(self, xs, k):
            calls.append(k)
            return super()._sorted_partials(xs, k)

    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=5, seed=1), gamma=0.24, level=4)
    X = ControlledPath(driver, 4, 1, driver.times, {EMPTY_WORD: np.ones(5), Word((1, 2)): np.ones(5)})
    phi = Counting(1, [[(0.5, [1.0], 0.2)]])
    got = compose(phi, X)
    # Only (1,2) itself is a present part: arity 1 of the target (1,2).
    assert sorted(calls) == [0, 1]
    assert set(got.coeffs) == {EMPTY_WORD, Word((1, 2))}
