"""One derived-field recursion, built on first use, and one increment route.

``DerivedFieldTable`` stores only F_ε at construction; ``field(w)`` builds
F_w from F_{w[1:]} the first time it is asked for, so the solve paths
(which read the table through ``values_at``) never build one.  The Γ
composition oracle ``gamma_by_composition`` runs on the table's Leibniz
rule and must match the first-order operator it replaced (kept here).
``GeometricRoughPath.increment`` is the batch of one of ``increments`` and
must give the old scalar route's rows (kept here) bit for bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughkit.rde as rde
from roughkit.algebra import EMPTY_WORD, GroupTensor, Word, convolution, group_inverse, words_up_to
from roughkit.functions import PolynomialFunction, SmoothFunction, TrigPolynomial
from roughkit.rde import VectorFieldSystem, derive_fields, gamma_by_composition, solve_rde
from roughkit.roughpath import GeometricRoughPath, lift_pl, sample_fbm, solve_partition
from roughkit.rpde import ParticleMeasure, TransportProblem, push_measure, solve_transport, verify_continuity


def field(rng, n, family, n_out=None):
    n_out = n if n_out is None else n_out
    if family == "trig":
        return TrigPolynomial(n, [
            [(float(rng.uniform(0.2, 0.6)), rng.normal(0.0, 1.0, n), float(rng.uniform(0.0, 6.3)))]
            for _ in range(n_out)
        ])
    comps = []
    for _ in range(n_out):
        comp = {(0,) * n: float(rng.normal(0.0, 0.2))}
        for j in range(n):
            comp[tuple(int(i == j) for i in range(n))] = float(rng.normal(0.0, 0.3))
            comp[tuple(2 * int(i == j) for i in range(n))] = float(rng.normal(0.0, 0.05))
        comps.append(comp)
    return PolynomialFunction(n, comps)


def system_of(rng, n, families):
    return VectorFieldSystem([field(rng, n, f) for f in families])


# ---------------------------------------------------------------------------
# F_w built on first use.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["polynomial", "trig"])
def test_solve_paths_build_no_derived_field(monkeypatch, family):
    def refuse(*args, **kwargs):
        raise AssertionError("derived field built")

    monkeypatch.setattr(rde, "_poly_derived", refuse)
    monkeypatch.setattr(rde._LeibnizDerivedField, "__init__", refuse)
    rng = np.random.default_rng(3)
    system = system_of(rng, 2, [family, family])
    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=9, seed=5), gamma=0.3)
    assert driver.level == 3
    mesh = 1.0 / 16

    states = solve_rde(rng.normal(0.0, 0.5, 2), system, driver, solve_partition(driver, 0.0, 1.0, mesh)).states
    assert np.isfinite(states).all()
    terminal = PolynomialFunction(2, [{(2, 0): 1.0, (0, 1): 0.5, (0, 0): 0.1}])
    queries = [(s, rng.normal(0.0, 0.5, 2)) for s in (0.0, 0.3, 0.5, 1.0)]
    assert np.isfinite(solve_transport(TransportProblem(fields=system, terminal=terminal, driver=driver),
                                       queries, mesh)).all()
    time_grid = np.linspace(0.0, 1.0, 33)
    evolution = push_measure(system, driver, ParticleMeasure(rng.normal(0.0, 0.5, (4, 2))), time_grid, mesh)
    assert np.isfinite(evolution.positions).all()
    phis = [PolynomialFunction(2, [{(1, 0): 1.0}]), PolynomialFunction(2, [{(1, 1): 0.5, (0, 2): 1.0}])]
    report = verify_continuity(system, driver, evolution, phis, time_grid)
    assert set(report.checks) == set(words_up_to(2, driver.hoelder_level))

    # The patches are live: asking for a word of length >= 2 builds one.
    with pytest.raises(AssertionError, match="derived field built"):
        derive_fields(system, 3).field(Word((1, 2)))


def eager_fields(system, depth):
    """Every F_w built up front, as the table did before building on demand."""
    fields = {EMPTY_WORD: PolynomialFunction.identity(system.n)}
    polynomial = all(isinstance(f, PolynomialFunction) for f in system.fields)
    for w in words_up_to(system.d, depth)[1:]:
        direction = system.fields[w[0] - 1]
        if len(w) == 1:
            fields[w] = direction
        elif polynomial:
            fields[w] = rde._poly_derived(fields[w[1:]], direction)
        else:
            fields[w] = rde._LeibnizDerivedField(fields[w[1:]], direction)
    return fields


@pytest.mark.parametrize("families", [("polynomial", "polynomial"), ("trig", "trig"), ("trig", "polynomial")])
def test_field_is_built_once_and_equals_the_eager_build(families):
    rng = np.random.default_rng(11)
    system = system_of(rng, 2, families)
    table = derive_fields(system, 3)
    assert list(table._fields) == [EMPTY_WORD]
    # Asking for a long word first builds its suffixes on the way.
    first = table.field(Word((2, 1, 2)))
    assert set(table._fields) == {EMPTY_WORD, Word((2,)), Word((1, 2)), Word((2, 1, 2))}
    assert table.field(Word((2, 1, 2))) is first
    got = {w: table.field(w) for w in table.words}
    assert all(table.field(w) is fn for w, fn in got.items())
    assert table.field(Word((1,))) is system.fields[0]
    want = eager_fields(system, 3)
    x = rng.normal(0.0, 0.5, (5, 2))
    for w in table.words:
        assert np.array_equal(got[w].values(x), want[w].values(x)), w
        assert np.array_equal(got[w].partial(x[0], (1, 2)), want[w].partial(x[0], (1, 2))), w
    assert np.array_equal(table.recursion_values_at(x).array, np.stack([want[w].values(x) for w in table.words]))


@pytest.mark.parametrize("key", [
    Word((1, 1, 1, 1)),  # longer than the depth
    Word((3,)),  # a letter beyond d
    Word((1, 3)),
    (1,),  # not a Word
    (),
    "1",
    1,
    None,
])
def test_field_rejects_keys_outside_the_table(key):
    table = derive_fields(system_of(np.random.default_rng(2), 2, ["trig", "polynomial"]), 3)
    with pytest.raises(KeyError):
        table.field(key)
    assert list(table._fields) == [EMPTY_WORD]


# ---------------------------------------------------------------------------
# Γ composition through the table's Leibniz rule.
# ---------------------------------------------------------------------------

class OldDirectionalDerivative(SmoothFunction):
    """Γ_i φ = f_i · ∇φ with its own Leibniz loops, as before the table's
    rule served it."""

    def __init__(self, field: SmoothFunction, phi: SmoothFunction):
        orders = []
        if phi.max_order is not None:
            orders.append(phi.max_order - 1)
        if field.max_order is not None:
            orders.append(field.max_order)
        super().__init__(phi.n_in, 1, min(orders) if orders else None)
        self.field = field
        self.phi = phi

    def value(self, x):
        x = np.asarray(x, dtype=float)
        grad = np.array([self.phi.partial(x, (b,))[0] for b in range(1, self.n_in + 1)])
        return np.array([float(self.field.value(x) @ grad)])

    def partial(self, x, alpha):
        x = np.asarray(x, dtype=float)
        alpha = tuple(alpha)
        if not alpha:
            return self.value(x)
        total = 0.0
        positions = list(range(len(alpha)))
        for b in range(1, self.n_in + 1):
            for r in range(len(alpha) + 1):
                for subset in itertools.combinations(positions, r):
                    inside = tuple(alpha[i] for i in subset)
                    outside = tuple(alpha[i] for i in positions if i not in subset)
                    fb = self.field.partial(x, outside)[b - 1]
                    if fb == 0.0:
                        continue
                    total += fb * self.phi.partial(x, inside + (b,))[0]
        return np.array([total])


def old_gamma_by_composition(w, system, phi):
    out = phi
    for letter in reversed(w.letters):
        out = OldDirectionalDerivative(system.fields[letter - 1], out)
    return out


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2),
    d=st.integers(1, 2),
    family=st.sampled_from(["polynomial", "trig", "mixed"]),
    phi_family=st.sampled_from(["polynomial", "trig"]),
    length=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_gamma_by_composition_matches_the_old_operator_chain(n, d, family, phi_family, length, seed):
    rng = np.random.default_rng(seed)
    families = {"polynomial": ["polynomial"] * 2, "trig": ["trig"] * 2, "mixed": ["trig", "polynomial"]}[family]
    system = system_of(rng, n, families[:d])
    phi = field(rng, n, phi_family, n_out=1)
    w = Word(rng.integers(1, d + 1, length))
    got, want = gamma_by_composition(w, system, phi), old_gamma_by_composition(w, system, phi)
    assert isinstance(got, rde._DirectionalDerivative) and isinstance(got, rde._LeibnizDerivedField)
    assert (got.n_in, got.n_out, got.max_order) == (want.n_in, want.n_out, want.max_order)
    for x in rng.normal(0.0, 0.7, (3, n)):
        for alpha in [()] + [(j,) for j in range(1, n + 1)]:
            a, b = got.partial(x, alpha), want.partial(x, alpha)
            assert a.shape == b.shape == (1,)
            assert abs(a[0] - b[0]) <= 1e-12 * max(1.0, abs(b[0])), (w, alpha, a, b)
        assert got.value(x).shape == (1,)
        assert abs(got.value(x)[0] - want.value(x)[0]) <= 1e-12 * max(1.0, abs(want.value(x)[0]))


def test_gamma_composition_keeps_its_input_checks():
    system = system_of(np.random.default_rng(4), 2, ["polynomial", "polynomial"])
    with pytest.raises(ValueError, match="scalar"):
        gamma_by_composition(Word((1,)), system, system.fields[0])
    linear = PolynomialFunction(2, [{(1, 0): 1.0}])
    linear.max_order = 0
    with pytest.raises(ValueError, match="gamma composition"):
        gamma_by_composition(Word((1,)), system, linear)


# ---------------------------------------------------------------------------
# increment as the batch of one.
# ---------------------------------------------------------------------------

def _old_knot_index(times, t):
    j = int(np.searchsorted(times, t))
    if j < len(times) and abs(times[j] - t) <= 1e-12:
        return j
    if j > 0 and abs(times[j - 1] - t) <= 1e-12:
        return j - 1
    return None


def old_increment(path, s, t):
    """The scalar route ``increment`` had: cached knot inverses, else one
    basepoint and its inverse per endpoint."""
    s, t = float(s), float(t)
    if s > t:
        raise ValueError(f"increment requires s <= t, got s={s} > t={t}")
    if s == t:
        return GroupTensor.identity(path.dim, path.level)
    wrap = path._tensor
    inverses = group_inverse(GroupTensor(wrap(path._stack)), tol=None).tensor.array
    js, jt = _old_knot_index(path.times, s), _old_knot_index(path.times, t)
    left = inverses[js] if js is not None else group_inverse(path.basepoint_at(s), tol=None).tensor.array
    right = path._stack[jt] if jt is not None else path.basepoint_at(t).tensor.array
    return GroupTensor(convolution(wrap(left), wrap(right)))


def _paths():
    lifted = lift_pl(sample_fbm(H=0.4, d=2, knots=9, seed=21), gamma=0.3, level=3)
    geodesic = GeometricRoughPath(lifted.gamma, lifted.level, lifted.times, lifted.basepoints)
    return [lifted, geodesic]


@pytest.mark.parametrize("which", [0, 1])
def test_increment_equals_the_old_scalar_route_bit_for_bit(which):
    path = _paths()[which]
    rng = np.random.default_rng(30 + which)
    knots = path.times
    near = np.concatenate([knots[1:-1] + 4e-13, knots[1:-1] - 4e-13])
    times = np.concatenate([knots, near, rng.uniform(0.0, 1.0, 10), [1.0 - 1e-13, 5e-13]])
    pairs = [(s, t) for s in times for t in times if s <= t]
    assert any(s == t for s, t in pairs)
    for s, t in pairs:
        got, want = path.increment(s, t), old_increment(path, s, t)
        assert isinstance(got, GroupTensor)
        assert (got.dim, got.level) == (want.dim, want.level)
        assert np.array_equal(got.tensor.array, want.tensor.array), (s, t)


@pytest.mark.parametrize("s, t", [(0.7, 0.3), (0.5, 0.5 - 1e-15), (-0.5, 0.3), (0.2, 1.5), (-0.1, 2.0), (1.5, 2.0)])
def test_increment_errors_are_the_old_scalar_routes(s, t):
    for path in _paths():
        with pytest.raises(ValueError) as want:
            old_increment(path, s, t)
        with pytest.raises(ValueError) as got:
            path.increment(s, t)
        assert str(got.value) == str(want.value)
