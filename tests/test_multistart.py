"""Multi-start flow jets and batched increments against the per-start routes.

``FlowSolutionOracle.jets`` steps every start time's characteristics in one
ragged batch and chains the terminal data through all endpoints at once;
``GeometricRoughPath.increments`` answers many interval queries in one
call.  Both are compared here with the routes they replace: per-cell
``increment`` calls, a test-local copy of the per-start composed-jet loop,
and the per-point chain rule ``compose_partial``.
"""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughkit.algebra import words_up_to
from roughkit.errors import NumericalFailure
from roughkit.functions import JetFunction, PolynomialFunction, compose_partial
from roughkit.jets import JetSpace, jet_compose, solve_flow_jets, terminal_flow_jets
from roughkit.rde import VectorFieldSystem, derive_fields
from roughkit.roughpath import GeometricRoughPath, lift_pl, sample_fbm
from roughkit.rpde import FlowSolutionOracle, TransportProblem, solve_partition, verify_transport


def close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


# ---------------------------------------------------------------------------
# Batched increments.
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    level=st.integers(1, 5),
    knots=st.integers(2, 9),
    seed=st.integers(0, 10_000),
    geodesic=st.booleans(),
)
def test_increments_match_per_pair_increment(d, level, knots, seed, geodesic):
    driver = lift_pl(sample_fbm(H=0.6, d=d, knots=knots, seed=seed), gamma=1.0, level=level)
    if geodesic:
        # A JSON round trip drops the generator: off-grid times go geodesic.
        driver = GeometricRoughPath.from_json(driver.to_json())
        assert driver.generator is None
    rng = np.random.default_rng(seed)
    times = np.concatenate([driver.times, rng.uniform(0.0, driver.horizon, 6), [0.0, driver.horizon]])
    s, t = rng.choice(times, 24), rng.choice(times, 24)
    s, t = np.minimum(s, t), np.maximum(s, t)
    s[:2] = t[:2]  # s == t rows, on and off the grid
    batch = driver.increments(s, t)
    assert batch.tensor.array.shape == (24, len(words_up_to(d, level)))
    for c in range(24):
        single = driver.increment(s[c], t[c]).tensor.array
        on_grid = np.isin(s[c], driver.times) and np.isin(t[c], driver.times)
        if on_grid:
            assert np.array_equal(batch.tensor.array[c], single), c
        else:
            assert close(batch.tensor.array[c], single, tol=1e-15), c


def test_increments_reject_bad_pairs():
    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=5, seed=1), gamma=0.5)
    with pytest.raises(ValueError, match="s <= t"):
        driver.increments([0.5, 0.2], [0.6, 0.1])
    with pytest.raises(ValueError, match="outside"):
        driver.increments([0.0], [1.5])
    with pytest.raises(ValueError, match="1-d"):
        driver.increments([0.0, 0.1], [0.5])
    empty = driver.increments([], [])
    assert empty.tensor.array.shape == (0, len(words_up_to(2, driver.level)))


# ---------------------------------------------------------------------------
# Multi-start flow jets.
# ---------------------------------------------------------------------------

def old_composed_jets(xs, system, driver, partition, jet_order, table):
    """The per-start composed-jet loop: one shared increment per cell."""
    space = JetSpace(system.n, jet_order)
    words = words_up_to(driver.dim, driver.level)
    current = space.unpack(space.canonical_state(xs))
    for cell in range(len(partition) - 1):
        g = driver.increment(partition[cell], partition[cell + 1]).tensor.array
        stacks = table.jet_stacks(current[0], jet_order)
        davie = []
        for q in range(jet_order + 1):
            block = np.stack([stacks[w][q] for w in words])
            davie.append((g @ block.reshape(len(words), -1)).reshape(block.shape[1:]))
        current = jet_compose(davie, current)
    return current


def random_problem(rng, n, d, gamma):
    def poly(n_out, scale):
        comps = []
        for _ in range(n_out):
            comp = {(0,) * n: rng.normal(0.0, scale)}
            for j in range(n):
                e = [0] * n
                e[j] = 1
                comp[tuple(e)] = rng.normal(0.0, scale)
                e[j] = 2
                comp[tuple(e)] = rng.normal(0.0, scale / 2)
            comps.append(comp)
        return PolynomialFunction(n, comps)

    fields = VectorFieldSystem([poly(n, 0.3) for _ in range(d)])
    terminal = PolynomialFunction(n, [{
        **{tuple(int(i == j) * 2 for i in range(n)): rng.normal() for j in range(n)},
        **{tuple(int(i == j) * 3 for i in range(n)): 0.2 * rng.normal() for j in range(n)},
        (1,) + (0,) * (n - 1): rng.normal(),
    }])
    driver = lift_pl(sample_fbm(H=0.6, d=d, knots=9, seed=int(rng.integers(1000))), gamma=gamma)
    return TransportProblem(fields=fields, terminal=terminal, driver=driver)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3),
    d=st.integers(1, 2),
    jet_order=st.integers(1, 3),
    gamma=st.sampled_from([0.3, 0.45]),
    mesh=st.sampled_from([1.0 / 8, 1.0 / 5]),
    starts=st.lists(
        st.one_of(st.sampled_from([0.0, 0.125, 0.5, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=5
    ),
    repeat=st.booleans(),
    m=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_multistart_jets_match_per_start_chain_rule(n, d, jet_order, gamma, mesh, starts, repeat, m, seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n, d, gamma)
    starts = starts + starts[:1] if repeat else starts
    points = rng.normal(0.0, 0.5, (m, n))
    oracle = FlowSolutionOracle(problem, mesh=mesh, jet_order=jet_order)
    got = oracle.jets(starts, points)
    assert [b.shape for b in got] == [(len(starts), m) + (n,) * p for p in range(jet_order + 1)]
    table = derive_fields(problem.fields, problem.driver.level)
    alphas = [a for p in range(1, jet_order + 1) for a in itertools.combinations_with_replacement(range(1, n + 1), p)]
    for j, s in enumerate(starts):
        partition = solve_partition(problem.driver, s, problem.horizon, mesh)
        flow = old_composed_jets(points, problem.fields, problem.driver, partition, jet_order, table)
        for k, x in enumerate(points):
            partials = {a: flow[len(a)][k][(slice(None),) + tuple(i - 1 for i in a)] for a in alphas}
            jet = JetFunction(x, flow[0][k], partials, jet_order)
            assert close(got[0][j, k], problem.terminal.value(flow[0][k])[0]), (s, k)
            for a in alphas:
                want = compose_partial(problem.terminal, jet, x, a)[0]
                assert close(got[len(a)][j, k][tuple(i - 1 for i in a)], want), (s, k, a)
                assert close(oracle(s, x).partial(x, a)[0], want), (s, k, a)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 2),
    jet_order=st.integers(1, 3),
    starts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    seed=st.integers(0, 10_000),
)
@example(n=2, jet_order=1, starts=[0.0], seed=891)
def test_flow_jets_match_the_per_start_loop(n, jet_order, starts, seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n, 2, 0.3)
    driver, fields = problem.driver, problem.fields
    table = derive_fields(fields, driver.level)
    points = rng.normal(0.0, 0.5, (2, n))
    partitions = [solve_partition(driver, s, 1.0, 1.0 / 6) for s in starts]
    try:
        ends = terminal_flow_jets(points, fields, driver, partitions, jet_order, table)
    except NumericalFailure as exc:
        # The quadratic fields blow up on a few draws: the per-start loop must
        # then be non-finite in the row the failure names, for a start it names.
        message = str(exc)
        row = int(message.rsplit(", row ", 1)[1])
        named = [p for p in partitions if f" from s={p[0]:.6g}," in message] or partitions
        with np.errstate(all="ignore"):
            wants = [old_composed_jets(points, fields, driver, p, jet_order, table) for p in named]
        assert any(not np.isfinite(want[0][row]).all() for want in wants), message
        return
    for j, partition in enumerate(partitions):
        want = old_composed_jets(points, fields, driver, partition, jet_order, table)
        path = solve_flow_jets(points, fields, driver, partition, jet_order, table=table)
        assert len(path.times) == len(partition) == path.blocks[0].shape[0]
        for p in range(jet_order + 1):
            assert close(ends[p][j], want[p]), (j, p)
            assert close(path.blocks[p][-1], want[p]), (j, p)


def test_verify_transport_never_calls_compose_partial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compose_partial was called")

    for name, module in list(sys.modules.items()):
        if name.startswith("roughkit") and hasattr(module, "compose_partial"):
            monkeypatch.setattr(module, "compose_partial", refuse)
    driver = lift_pl(sample_fbm(H=0.35, d=2, knots=33, seed=4), gamma=0.3)
    fields = VectorFieldSystem([
        PolynomialFunction(2, [{(0, 1): 0.5, (0, 0): 0.1}, {(1, 0): -0.5}]),
        PolynomialFunction(2, [{(1, 0): 0.25}, {(0, 1): -0.25, (0, 0): 0.2}]),
    ])
    terminal = PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5, (1, 0): 0.2}])
    problem = TransportProblem(fields=fields, terminal=terminal, driver=driver)
    oracle = FlowSolutionOracle(problem, mesh=1.0 / 64.0)
    grid = [np.array([a, b]) for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.5)]
    times = np.linspace(0.0, 1.0, 65)
    batched = verify_transport(problem, oracle, grid, times, anchors_per_scale=3)
    assert batched.passed
    # A plain callable goes through the per-point route.
    plain = verify_transport(problem, lambda s, x: oracle(s, x), grid, times, anchors_per_scale=3)
    assert plain.passed
    for w, check in batched.checks.items():
        assert check.slope == pytest.approx(plain.checks[w].slope, rel=1e-6), w
