"""Controlled paths on one dense array, and empty batches in the Davie path.

``ControlledPath`` stores its coefficients as one read-only
(len(times), W, width) array; ``compose``, ``rough_integral`` and the linear
operations build that array directly.  They are compared here with a
test-local copy of the word-dict class and routes they replaced.  Also
covered: letters beyond the driver dimension, and ``values_at``,
``davie_step`` and ``solve_rde`` on a batch of no points.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughkit.algebra import EMPTY_WORD, Word, _letter_index, expansion_plan, words_up_to
from roughkit.controlled import ControlledPath, compose, rough_integral
from roughkit.functions import FiniteDifferenceFunction, PolynomialFunction, TrigPolynomial, graded_expansion
from roughkit.rde import VectorFieldSystem, davie_step, derive_fields, solve_rde
from roughkit.roughpath import grid_index, hoelder_level, lift_pl, sample_fbm


# ---------------------------------------------------------------------------
# Test-local copy of the word-dict class and its routes.
# ---------------------------------------------------------------------------

class DictControlledPath:
    """One (len(times), width) array per word whose values are not all zero."""

    def __init__(self, reference, order, width, times, coeffs):
        self.reference, self.order, self.width = reference, order, width
        self.times = np.asarray(times, dtype=float)
        self.coeffs = {}
        for w, arr in coeffs.items():
            assert len(w) <= order - 1
            arr = np.asarray(arr, dtype=float)
            arr = arr[:, None] if arr.ndim == 1 else arr
            assert arr.shape == (len(self.times), width)
            if np.any(arr != 0.0):
                self.coeffs[w] = arr

    @property
    def dim(self):
        return self.reference.dim

    @property
    def primal(self):
        return self.coeff(EMPTY_WORD)

    def coeff(self, w):
        arr = self.coeffs.get(w)
        return np.zeros((len(self.times), self.width)) if arr is None else arr

    @property
    def stacked(self):
        return np.stack([self.coeff(w) for w in words_up_to(self.dim, self.order - 1)], axis=1)

    def truncate(self, order):
        kept = {w: a for w, a in self.coeffs.items() if len(w) <= order - 1}
        return DictControlledPath(self.reference, order, self.width, self.times, kept)

    def restrict(self, indices):
        return DictControlledPath(self.reference, self.order, self.width, self.times[indices],
                                  {w: a[indices] for w, a in self.coeffs.items()})

    def __add__(self, other):
        words = set(self.coeffs) | set(other.coeffs)
        return DictControlledPath(self.reference, self.order, self.width, self.times,
                                  {w: self.coeff(w) + other.coeff(w) for w in words})

    def __mul__(self, scalar):
        return DictControlledPath(self.reference, self.order, self.width, self.times,
                                  {w: float(scalar) * a for w, a in self.coeffs.items()})

    def to_json(self):
        items = sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())
        return json.dumps({
            "order": self.order,
            "width": self.width,
            "times": [float(t) for t in self.times],
            "coeffs": [{"word": list(w.letters), "values": [[float(v) for v in row] for row in arr]}
                       for w, arr in items],
        })


def dict_compose(phi, X):
    xs, n = X.primal, X.order
    out = {EMPTY_WORD: phi.values(xs)}
    words = words_up_to(X.dim, n - 1)
    present = np.array([w in X.coeffs for w in words])
    coeffs = graded_expansion(lambda k: [phi.deriv_tensors(xs, k)], X.stacked,
                              expansion_plan(X.dim, 1, n - 1), phi.n_out, present)
    for w, acc in zip(words[1:], coeffs.swapaxes(0, 1)):
        if np.any(acc != 0.0):
            out[w] = acc
    return DictControlledPath(X.reference, n, phi.n_out, X.times, out)


def dict_rough_integral(X, letter, partition):
    reference = X.reference
    n_gamma = reference.hoelder_level
    idx = grid_index(X.times, partition, 1e-9)
    words = words_up_to(reference.dim, n_gamma - 1)
    incs = reference.increments(partition[:-1], partition[1:]).tensor.array
    cells = incs[:, [_letter_index(reference.dim, n_gamma)[w.letters + (letter,)] for w in words]]
    values = np.zeros((len(partition), X.width))
    np.cumsum(np.einsum("cw,cwk->ck", cells, X.stacked[idx[:-1], : len(words)]), axis=0, out=values[1:])
    lift = {EMPTY_WORD: values}
    for w, arr in X.coeffs.items():
        if len(w) <= n_gamma - 1:
            lift[w + Word((letter,))] = arr[idx]
    return values, DictControlledPath(reference, n_gamma + 1, X.width, partition, lift)


def same(got, want):
    """Equal word sets in canonical order, bit-identical arrays, identical JSON."""
    assert list(got.coeffs) == sorted(want.coeffs, key=Word.sort_key)
    for w, arr in want.coeffs.items():
        assert np.ascontiguousarray(got.coeffs[w]).tobytes() == arr.tobytes(), w
        assert np.array_equal(got.coeff(w), arr), w
    assert got.stacked.shape == want.stacked.shape and np.array_equal(got.stacked, want.stacked)
    assert not got.stacked.flags.writeable
    assert got.to_json() == want.to_json()


# ---------------------------------------------------------------------------
# Equivalence.
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    gamma=st.sampled_from([0.3, 0.4, 0.6]),
    order_gap=st.integers(0, 3),
    width=st.integers(1, 2),
    n_out=st.integers(1, 2),
    trig=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_dense_controlled_path_matches_the_word_dict(d, gamma, order_gap, width, n_out, trig, seed):
    rng = np.random.default_rng(seed)
    n_gamma = hoelder_level(gamma)
    order = max(1, n_gamma + 1 - order_gap)
    reference = lift_pl(sample_fbm(H=0.5, d=d, knots=9, seed=seed), gamma=gamma, level=n_gamma)
    times = reference.times

    def random_coeffs():
        # Absent words, and present words whose array is all zero, both read as zero.
        shape = (len(times), width)
        return {w: rng.normal(size=shape) if rng.random() < 0.8 else np.zeros(shape)
                for w in words_up_to(d, order - 1) if rng.random() < 0.8}

    coeffs, other = random_coeffs(), random_coeffs()
    X, old = ControlledPath(reference, order, width, times, coeffs), DictControlledPath(
        reference, order, width, times, coeffs)
    Y, old_y = ControlledPath(reference, order, width, times, other), DictControlledPath(
        reference, order, width, times, other)
    same(X, old)
    same(ControlledPath(reference, order, width, times, X.stacked), old)
    same(ControlledPath.from_json_dict(json.loads(X.to_json()), reference), old)
    same(X + Y, old + old_y)
    scalar = float(rng.normal())
    same(X * scalar, old * scalar)
    same(scalar * X, old * scalar)
    lower = int(rng.integers(1, order + 1))
    same(X.truncate(lower), old.truncate(lower))
    indices = np.sort(rng.choice(len(times), int(rng.integers(1, len(times) + 1)), replace=False))
    same(X.restrict(indices), old.restrict(indices))
    same(X.restrict(slice(1, None, 2)), old.restrict(slice(1, None, 2)))

    if trig:
        phi = TrigPolynomial(width, [[(rng.normal(), rng.normal(size=width), rng.normal())] for _ in range(n_out)])
    else:
        phi = PolynomialFunction(width, [{(2,) + (0,) * (width - 1): rng.normal(), (0,) * width: rng.normal(),
                                          (0,) * (width - 1) + (1,): rng.normal()} for _ in range(n_out)])
    same(compose(phi, X), dict_compose(phi, old))

    if order >= n_gamma:
        partition = times[:: int(rng.integers(1, 4))]
        for letter in range(1, d + 1):
            got = rough_integral(X, letter, partition)
            want_values, want_lift = dict_rough_integral(old, letter, partition)
            assert got.values.tobytes() == want_values.tobytes()
            same(got.lift, want_lift)


def test_solution_path_is_the_dense_table():
    driver = lift_pl(sample_fbm(H=0.45, d=2, knots=17, seed=2), gamma=0.4)
    system = VectorFieldSystem([TrigPolynomial(2, [[(0.5, (1.0, 0.3), 0.1)], [(0.4, (0.2, 1.0), 0.0)]]),
                                PolynomialFunction(2, [{(0, 1): 0.3}, {(1, 0): -0.2, (0, 0): 0.1}])])
    solution = solve_rde(np.array([0.1, -0.2]), system, driver, driver.times)
    path = solution.path
    words = words_up_to(2, path.order - 1)
    values = solution.table.values_at(solution.states)
    assert path.stacked.shape == (len(driver.times), len(words), 2)
    for k, w in enumerate(words):
        assert np.array_equal(path.stacked[:, k], values[w]), w
    assert list(path.coeffs) == [w for w in words if np.any(values[w] != 0.0)]
    assert solution.fixed_point_residual() < 1e-12


# ---------------------------------------------------------------------------
# Input checks.
# ---------------------------------------------------------------------------

def test_controlled_path_rejects_bad_coefficients():
    reference = lift_pl(sample_fbm(H=0.5, d=2, knots=5, seed=1), gamma=0.5)
    times, ones = reference.times, np.ones((5, 1))
    with pytest.raises(ValueError, match=r"Word\(3\) has a letter beyond d = 2"):
        ControlledPath(reference, 2, 1, times, {Word((3,)): ones})
    with pytest.raises(ValueError, match=r"Word\(1,1\) exceeds order"):
        ControlledPath(reference, 2, 1, times, {Word((1, 1)): ones})
    with pytest.raises(ValueError, match="has shape"):
        ControlledPath(reference, 2, 1, times, {EMPTY_WORD: np.ones((5, 2))})
    with pytest.raises(ValueError, match=r"coefficient array has shape \(5, 2, 1\), expected \(5, 3, 1\)"):
        ControlledPath(reference, 2, 1, times, np.ones((5, 2, 1)))
    with pytest.raises(ValueError, match="increase strictly"):
        ControlledPath(reference, 2, 1, times[::-1], np.ones((5, 3, 1)))
    with pytest.raises(ValueError, match="controlled order"):
        ControlledPath(reference, 4, 1, times, {})
    X = ControlledPath(reference, 2, 1, times, {EMPTY_WORD: ones})
    assert not X.coeff(Word((3,))).any() and not X.coeff(Word((1, 1))).any()
    with pytest.raises(ValueError, match="read-only"):
        X.primal[0] = 2.0


# ---------------------------------------------------------------------------
# Empty batches.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["trig", "polynomial", "mixed"])
def test_empty_batch_runs_through_the_davie_path(family):
    trig = TrigPolynomial(2, [[(0.5, (1.0, 0.3), 0.1)], [(0.4, (0.2, 1.0), 0.0)]])
    poly = PolynomialFunction(2, [{(0, 1): 0.3, (2, 0): 0.1}, {(1, 0): -0.2, (0, 0): 0.1}])
    fields = {"trig": [trig, trig], "polynomial": [poly, poly], "mixed": [trig, poly]}[family]
    system = VectorFieldSystem(fields)
    driver = lift_pl(sample_fbm(H=0.45, d=2, knots=9, seed=3), gamma=0.4, level=3)
    table = derive_fields(system, driver.level)
    values = table.values_at(np.zeros((0, 2)))
    assert values.array.shape == (len(table.words), 0, 2)
    assert davie_step(np.zeros((0, 2)), table, driver.increment(0.0, 0.5)).shape == (0, 2)
    assert solve_rde(np.zeros((0, 2)), system, driver, driver.times).states.shape == (len(driver.times), 0, 2)


def test_empty_batch_runs_through_the_per_point_defaults():
    # Fields with only a per-point ``value``/``partial`` reach the batch
    # defaults of SmoothFunction, as do the recursion route's derived fields.
    trig = TrigPolynomial(2, [[(0.5, (1.0, 0.3), 0.1)], [(0.4, (0.2, 1.0), 0.0)]])
    fd = FiniteDifferenceFunction(lambda x: np.array([np.sin(x[0]) * x[1], 0.3 * x[0]]), 2, 2, max_order=3)
    none = np.zeros((0, 2))
    assert fd.values(none).shape == (0, 2) and fd.partials(none, (1, 2)).shape == (0, 2)
    driver = lift_pl(sample_fbm(H=0.45, d=2, knots=9, seed=3), gamma=0.4, level=3)
    g = driver.increment(0.0, 0.5)
    table = derive_fields(VectorFieldSystem([trig, trig]), driver.level)
    assert table.recursion_values_at(none).array.shape == (len(table.words), 0, 2)
    assert davie_step(none, table, g, route="recursion").shape == (0, 2)
    system = VectorFieldSystem([fd, fd])
    table = derive_fields(system, driver.level)
    assert table.values_at(none).array.shape == (len(table.words), 0, 2)
    assert davie_step(none, table, g).shape == (0, 2)
    assert solve_rde(none, system, driver, driver.times).states.shape == (len(driver.times), 0, 2)
