"""Flow jets stepped on one packed jet state, and the compiled jet sweep.

``terminal_flow_jets`` keeps the jets of all rows as one packed
(rows, dim) state in ``JetSpace.pack`` layout and chains each cell's Davie
jets through the state's own columns, with no ``jet_compose`` call.  It is
compared bit for bit with a test-local copy of the per-block loop it
replaced (one ``jet_compose`` per step on the list of blocks), on
polynomial, trig and mixed tables, ragged starts and empty batches, for the
terminal jets, ``solve_flow_jets``' per-step trajectory and the blow-up
message.  Also covered: the polynomial jet sweep compiled from exponent
arrays equals the ``MonomialSweep`` of the derived components, and the flat
take per order equals the transposed gather it replaced; a one-order
polynomial plan calls no ``np.unique``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughkit import jets, rpde
from roughkit.errors import NumericalFailure
from roughkit.functions import MonomialSweep, PolynomialFunction, TrigPolynomial, _symmetric_gather
from roughkit.jets import JetSpace, jet_compose, solve_flow_jets, terminal_flow_jets
from roughkit.rde import VectorFieldSystem, _ragged_steps, as_batch, derive_fields
from roughkit.roughpath import lift_pl, sample_fbm
from roughkit.rpde import FlowSolutionOracle, TransportProblem, solve_partition


def random_system(rng, d, n, family, scale=0.3):
    """d fields on R^n: trig, polynomial (degree <= 2), or alternating."""
    fields = []
    for i in range(d):
        if family == "trig" or (family == "mixed" and i % 2 == 0):
            comps = [[(rng.normal(0, scale), rng.normal(0, 1, n), rng.uniform(0, 6)) for _ in range(2)]
                     for _ in range(n)]
            fields.append(TrigPolynomial(n, comps))
        else:
            comps = [{tuple(rng.integers(0, 3, n)): rng.normal(0, scale) for _ in range(3)} for _ in range(n)]
            fields.append(PolynomialFunction(n, comps))
    return VectorFieldSystem(fields)


def driver_for(d, seed, knots=5):
    return lift_pl(sample_fbm(H=0.6, d=d, knots=knots, seed=seed), gamma=0.4)


def per_block_flow_jets(x0, system, driver, partitions, jet_order, table, on_step=None):
    """The stepper before the packed state: the blocks as a list, one
    ``jet_compose`` per step, and a finiteness check per block."""
    xs, _ = as_batch(x0, system.n)
    m, space = len(xs), JetSpace(system.n, jet_order)
    order, steps = _ragged_steps(driver, partitions, np.repeat(np.arange(len(partitions)), m))
    current = space.unpack(space.canonical_state(np.tile(xs, (len(partitions), 1))[order]))
    if on_step is not None:
        on_step(current)
    for live, g, cell in steps:
        blocks = [b[:live] for b in current]
        stacks = table.jet_stacks(blocks[0], jet_order).array
        blocks = jet_compose([np.einsum("aw,aw...->a...", g, b.swapaxes(0, 1)) for b in stacks], blocks)
        finite = np.logical_and.reduce([np.isfinite(b).reshape(live, -1).all(axis=1) for b in blocks])
        if not finite.all():
            bad = int(np.argmin(finite))
            start = "" if len(partitions) == 1 else f" from s={partitions[order[bad] // m][0]:.6g}"
            row = "" if m == 1 else f", row {order[bad] % m}"
            raise NumericalFailure(f"solve_flow_jets: blow-up on cell index {cell[bad]}{start}{row}")
        for block, new in zip(current, blocks):
            block[:live] = new
        if on_step is not None:
            on_step(current)
    rank = np.argsort(order)
    return [b[rank].reshape((len(partitions), m) + b.shape[1:]) for b in current]


def outcome(run):
    """The blocks a run returns, or the message of its NumericalFailure."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return run()
        except NumericalFailure as e:
            return str(e)


def same(got, want):
    if isinstance(want, str):
        return got == want
    return not isinstance(got, str) and len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# The packed stepper against the per-block loop.
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, database=None)
@given(
    family=st.sampled_from(["polynomial", "trig", "mixed"]),
    n=st.integers(1, 3),
    d=st.integers(1, 2),
    jet_order=st.integers(1, 3),
    starts=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.6, 0.9]), min_size=1, max_size=3),
    m=st.integers(0, 4),
    scale=st.sampled_from([0.3, 3.0]),
    seed=st.integers(0, 10_000),
)
@example(family="polynomial", n=2, d=2, jet_order=3, starts=[0.0, 0.5], m=3, scale=3.0, seed=1)
def test_packed_stepper_matches_the_per_block_loop(family, n, d, jet_order, starts, m, scale, seed):
    # The Leibniz route of trig and mixed tables gets smaller jet orders.
    if family != "polynomial":
        jet_order = min(jet_order, 4 - n)
    rng = np.random.default_rng(seed)
    system = random_system(rng, d, n, family, scale)
    driver = driver_for(d, seed)
    table = derive_fields(system, driver.level)
    partitions = [solve_partition(driver, s, 1.0, 0.3) for s in starts]
    xs = rng.normal(0, scale, (m, n))
    want = outcome(lambda: per_block_flow_jets(xs, system, driver, partitions, jet_order, table))
    got = outcome(lambda: terminal_flow_jets(xs, system, driver, partitions, jet_order, table))
    assert same(got, want), (got, want) if isinstance(want, str) else None
    if not isinstance(want, str):
        assert [b.shape for b in got] == [(len(starts), m) + (n,) * (p + 1) for p in range(jet_order + 1)]


@settings(max_examples=20, deadline=None, database=None)
@given(
    family=st.sampled_from(["polynomial", "trig", "mixed"]),
    n=st.integers(1, 2),
    jet_order=st.integers(1, 3),
    batch=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_solve_flow_jets_trajectory_matches_the_per_block_loop(family, n, jet_order, batch, seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng, 2, n, family)
    driver = driver_for(2, seed, knots=9)
    table = derive_fields(system, driver.level)
    partition = solve_partition(driver, 0.1, 1.0, 0.125)
    x0 = rng.normal(0, 0.3, (3, n) if batch else n)
    trajectory = []
    per_block_flow_jets(x0, system, driver, [partition], jet_order, table,
                        on_step=lambda blocks: trajectory.append([b.copy() for b in blocks]))
    path = solve_flow_jets(x0, system, driver, partition, jet_order, table=table)
    assert len(trajectory) == len(partition)
    for p, block in enumerate(path.blocks):
        want = np.stack([step[p] for step in trajectory])
        assert block.tobytes() == (want if batch else want[:, 0]).tobytes(), p


@pytest.mark.parametrize("starts, m", [([0.0], 1), ([0.0], 3), ([0.0, 0.5, 0.25], 1), ([0.25, 0.0], 4)])
def test_blow_up_names_the_cell_start_and_row(starts, m):
    """A cubic field from a large start blows up; both steppers name the same
    cell, start and row."""
    system = VectorFieldSystem([PolynomialFunction(1, [{(3,): 40.0}]), PolynomialFunction(1, [{(2,): 40.0}])])
    driver = driver_for(2, 3, knots=9)
    table = derive_fields(system, driver.level)
    partitions = [solve_partition(driver, s, 1.0, 0.125) for s in starts]
    xs = np.linspace(0.5, 30.0, m)[:, None][::-1]
    want = outcome(lambda: per_block_flow_jets(xs, system, driver, partitions, 2, table))
    assert isinstance(want, str) and "blow-up on cell index" in want
    assert (" from s=" in want) == (len(starts) > 1) and (", row " in want) == (m > 1)
    got = outcome(lambda: terminal_flow_jets(xs, system, driver, partitions, 2, table))
    assert got == want


def test_a_jet_blow_up_with_a_finite_state_is_caught():
    """Linear fields keep x = 0 at 0 while its Jacobian overflows: the check
    covers every block, not only the state."""
    system = VectorFieldSystem([PolynomialFunction.affine([[1e40]]), PolynomialFunction.affine([[-3e40]])])
    driver = driver_for(2, 4, knots=9)
    table = derive_fields(system, driver.level)
    partitions = [solve_partition(driver, s, 1.0, 0.125) for s in (0.0, 0.5)]
    xs = np.array([[0.0], [0.0]])
    want = outcome(lambda: per_block_flow_jets(xs, system, driver, partitions, 2, table))
    assert isinstance(want, str) and ", row " in want
    assert outcome(lambda: terminal_flow_jets(xs, system, driver, partitions, 2, table)) == want


def test_the_stepper_calls_no_jet_compose_and_the_oracle_one(monkeypatch):
    calls = []
    original = jets.jet_compose

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(jets, "jet_compose", counted)
    monkeypatch.setattr(rpde, "jet_compose", counted)
    rng = np.random.default_rng(5)
    system = random_system(rng, 2, 2, "polynomial")
    driver = driver_for(2, 5, knots=17)
    partitions = [solve_partition(driver, s, 1.0, 1.0 / 16) for s in (0.0, 0.25, 0.5)]
    terminal_flow_jets(rng.normal(0, 0.3, (4, 2)), system, driver, partitions, 3)
    solve_flow_jets(np.zeros(2), system, driver, partitions[0], 2)
    assert calls == []
    phi = PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5}])
    oracle = FlowSolutionOracle(TransportProblem(fields=system, terminal=phi, driver=driver), mesh=1.0 / 16)
    oracle.jets([0.0, 0.5], rng.normal(0, 0.3, (3, 2)))
    assert calls == [1]


def test_the_canonical_state_and_the_stepper_take_an_empty_batch():
    space = JetSpace(2, 3)
    state = space.canonical_state(np.zeros((0, 2)))
    assert state.shape == (0, space.dim) and [b.shape[0] for b in space.unpack(state)] == [0] * 4
    system = random_system(np.random.default_rng(1), 2, 2, "polynomial")
    driver = driver_for(2, 1)
    got = terminal_flow_jets(np.zeros((0, 2)), system, driver, [driver.times, driver.times[2:]], 2)
    assert [b.shape for b in got] == [(2, 0, 2), (2, 0, 2, 2), (2, 0, 2, 2, 2)]


# ---------------------------------------------------------------------------
# The compiled jet sweep and the flat take per order.
# ---------------------------------------------------------------------------

def map_sweep(table, pmax):
    """The sweep as the table compiled it from derived components."""
    n = table.system.n
    alphas = [alpha for p in range(pmax + 1) for alpha in _symmetric_gather(n, p)[0]]
    return MonomialSweep(n, [table.field(w).derived(alpha).components for alpha in alphas for w in table.words])


def transposed_jet_stacks(table, xs, pmax):
    """The polynomial blocks by the transpose copy and 3-D take they replaced."""
    n, words = table.system.n, table.words
    orders = [_symmetric_gather(n, p) for p in range(pmax + 1)]
    offsets = np.cumsum([0] + [len(order) for order, _ in orders])
    vals = map_sweep(table, pmax)(xs).reshape(len(xs), offsets[-1], len(words) * n)
    vals = np.ascontiguousarray(vals.swapaxes(1, 2))
    shape = (len(xs), len(words), n)
    return [vals.take(idx + offsets[p], axis=2).reshape(shape + (n,) * p) for p, (_, idx) in enumerate(orders)]


polynomial_systems = st.builds(
    lambda n, d, degree, terms, zero, seed: (n, d, degree, terms, zero, seed),
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 3), st.integers(1, 4), st.booleans(), st.integers(0, 2**16),
)


def polynomial_system(n, d, degree, terms, zero, seed):
    """Random polynomial fields; ``zero`` adds a 0.0 coefficient (the constructor drops it) and a term of
    coefficient ±1 or 0.5, so that products in F_w can cancel."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(d):
        comps = []
        for _ in range(n):
            comp = {tuple(rng.integers(0, degree + 1, n)): float(rng.normal()) for _ in range(terms)}
            if zero:
                comp[(0,) * n] = 0.0
                comp[tuple(rng.integers(0, degree + 1, n))] = float(rng.choice([1.0, -1.0, 0.5]))
            comps.append(comp)
        fields.append(PolynomialFunction(n, comps))
    return VectorFieldSystem(fields)


@settings(max_examples=60, deadline=None, database=None)
@given(system=polynomial_systems, depth=st.integers(1, 3), pmax=st.integers(0, 3))
@example(system=(2, 1, 0, 1, False, 0), depth=2, pmax=3)  # constant fields: every derived field is zero
def test_the_jet_sweep_from_exponent_arrays_equals_the_map_sweep(system, depth, pmax):
    table = derive_fields(polynomial_system(*system), depth)
    got, want = table._jet_plan(pmax)[0], map_sweep(table, pmax)
    assert got.shape == (want.shape[0] * want.shape[1],)  # one flat column per (α, word, component)
    assert got.expos.shape == want.expos.shape and got.expos.tobytes() == want.expos.tobytes()
    assert got.coeff.shape == want.coeff.shape and got.coeff.tobytes() == want.coeff.tobytes()
    assert table._jet_plan(pmax)[0] is got  # compiled once per pmax


@settings(max_examples=40, deadline=None, database=None)
@given(system=polynomial_systems, depth=st.integers(1, 3), pmax=st.integers(0, 3), m=st.sampled_from([1, 4, 68]))
def test_the_flat_take_per_order_equals_the_transposed_gather(system, depth, pmax, m):
    table = derive_fields(polynomial_system(*system), depth)
    xs = np.random.default_rng(system[-1]).uniform(-1.2, 1.2, (m, table.system.n))
    got = table.jet_stacks(xs, pmax).array
    for p, want in enumerate(transposed_jet_stacks(table, xs, pmax)):
        block = got[p].swapaxes(0, 1)  # back to the rows-first (M, W, n, …) array
        assert block.flags.c_contiguous and block.shape == want.shape and block.tobytes() == want.tobytes(), p


def test_a_one_order_polynomial_plan_calls_no_unique(monkeypatch):
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(kwargs.get("axis"))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    xs = np.random.default_rng(2).normal(size=(5, 2))
    comps = [{(3, 1): 0.5, (0, 2): -1.0, (1, 0): 2.0}]
    got = [PolynomialFunction(2, comps)._partials_by_order(xs, (k,))[0] for k in range(4)]
    assert calls == []
    want = PolynomialFunction(2, comps)._partials_by_order(xs, range(4))
    assert calls == [0]  # several orders share one union of exponents
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
