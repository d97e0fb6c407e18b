"""Batched stepping: an (M, n) batch of points gives, row by row, what M
single-point calls give.

Covers the derived-field table (values, jet stacks), the Davie step, RDE
and flow-jet solves, the particle push, grouped transport queries and the
batched flow-solution oracle, plus blow-up reporting inside a batch and the
lazy controlled lift.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughkit.rde as rde
from roughkit.errors import NumericalFailure
from roughkit.functions import PolynomialFunction, TrigPolynomial
from roughkit.jets import solve_flow_jets
from roughkit.rde import VectorFieldSystem, davie_step, derive_fields, solve_rde
from roughkit.roughpath import PiecewiseLinearPath, lift_pl, sample_fbm
from roughkit.rpde import (
    FlowSolutionOracle,
    ParticleMeasure,
    TransportProblem,
    push_measure,
    solve_partition,
    solve_transport,
)


def random_system(rng, d: int, n: int, family: str) -> VectorFieldSystem:
    fields = []
    for _ in range(d):
        if family == "polynomial":
            comps = []
            for _ in range(n):
                comp = {}
                for expo in itertools.product(range(3), repeat=n):
                    if sum(expo) <= 2 and rng.random() < 0.6:
                        comp[expo] = float(rng.normal(0.0, 0.5))
                comps.append(comp)
            fields.append(PolynomialFunction(n, comps))
        else:
            fields.append(TrigPolynomial(n, [
                [(float(rng.uniform(0.2, 0.6)), rng.normal(0.0, 1.0, n), float(rng.uniform(0, 6.3)))]
                for _ in range(n)
            ]))
    return VectorFieldSystem(fields)


def close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


cases = st.fixed_dictionaries({
    "d": st.integers(1, 2),
    "n": st.integers(1, 3),
    "m": st.integers(1, 6),
    "family": st.sampled_from(["polynomial", "trig"]),
    "seed": st.integers(0, 2**16),
})


def setup(case, level=2, knots=5):
    rng = np.random.default_rng(case["seed"])
    system = random_system(rng, case["d"], case["n"], case["family"])
    driver = lift_pl(sample_fbm(H=0.6, d=case["d"], knots=knots, seed=case["seed"]), gamma=0.5, level=level)
    points = rng.uniform(-0.5, 0.5, (case["m"], case["n"]))
    return system, driver, points


@settings(max_examples=40, deadline=None, database=None)
@given(cases)
def test_table_batches_match_points(case):
    system, driver, xs = setup(case, level=3)
    table = derive_fields(system, 3)
    batch = table.values_at(xs)
    stacks = table.jet_stacks(xs, 2)
    for m, x in enumerate(xs):
        single = table.values_at(x)
        single_stacks = table.jet_stacks(x, 2)
        for w in table.words:
            assert close(batch[w][m], single[w]), (str(w), m)
            for p in range(3):
                assert close(stacks[w][p][m], single_stacks[w][p]), (str(w), p, m)
    g = driver.increment(0.0, 0.6)
    stepped = davie_step(xs, table, g)
    for m, x in enumerate(xs):
        assert close(stepped[m], davie_step(x, table, g))


@settings(max_examples=15, deadline=None, database=None)
@given(cases)
def test_jet_stacks_are_the_full_symmetric_partials(case):
    # An independent reference for the gather index: every (unsorted)
    # entry of D^p F_w is the field oracle's partial along that index.
    system, _, xs = setup(case)
    table = derive_fields(system, 2)
    stacks = table.jet_stacks(xs, 2)
    n = case["n"]
    for w in table.words:
        fn = table.field(w)
        for p in range(3):
            for idx in itertools.product(range(n), repeat=p):
                want = np.stack([fn.partial(x, tuple(i + 1 for i in idx)) for x in xs])
                got = stacks[w][p][(slice(None), slice(None)) + idx]
                assert close(got, want), (str(w), idx)


@settings(max_examples=25, deadline=None, database=None)
@given(cases)
def test_solves_batch_match_points(case):
    system, driver, xs = setup(case)
    partition = np.linspace(0.0, 1.0, 7)
    table = derive_fields(system, driver.level)
    states = solve_rde(xs, system, driver, partition, table=table).states
    jets = solve_flow_jets(xs, system, driver, partition, 2, table=table)
    assert states.shape == (len(partition), case["m"], case["n"])
    for m, x in enumerate(xs):
        assert close(states[:, m], solve_rde(x, system, driver, partition, table=table).states)
        single = solve_flow_jets(x, system, driver, partition, 2, table=table)
        for p in range(3):
            assert close(jets.blocks[p][:, m], single.blocks[p]), (p, m)


def test_extended_flow_jets_batch_match_points():
    rng = np.random.default_rng(3)
    system = random_system(rng, 2, 2, "polynomial")
    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=5, seed=3), gamma=0.5, level=2)
    xs = rng.uniform(-0.5, 0.5, (2, 2))
    jets = solve_flow_jets(xs, system, driver, driver.times, 1, method="extended")
    for m, x in enumerate(xs):
        single = solve_flow_jets(x, system, driver, driver.times, 1, method="extended")
        for p in range(2):
            assert close(jets.blocks[p][:, m], single.blocks[p]), (p, m)


def linear_problem(seed=4):
    rng = np.random.default_rng(seed)
    fields = VectorFieldSystem([
        PolynomialFunction.affine(rng.normal(0.0, 0.4, (2, 2)), rng.normal(0.0, 0.2, 2)) for _ in range(2)
    ])
    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=9, seed=seed), gamma=0.3)
    terminal = PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.4, (1, 0): 0.2}])
    return TransportProblem(fields=fields, terminal=terminal, driver=driver), rng


def test_push_measure_matches_per_particle_solves():
    problem, rng = linear_problem()
    mu = ParticleMeasure(rng.normal(0.0, 0.5, (5, 2)), rng.uniform(0.5, 1.5, 5))
    times = np.array([0.0, 0.3, 1.0])
    evolution = push_measure(problem.fields, problem.driver, mu, times, mesh=1.0 / 16)
    partition = np.unique(np.concatenate([solve_partition(problem.driver, 0.0, 1.0, 1.0 / 16), times]))
    sample = [int(np.argmin(np.abs(partition - t))) for t in times]
    for m in range(mu.size):
        single = solve_rde(mu.points[m], problem.fields, problem.driver, partition).states[sample]
        assert close(evolution.positions[:, m], single)


def test_grouped_transport_matches_single_queries():
    problem, rng = linear_problem()
    starts = [0.0, 0.5, 1.0, 0.0, 0.25, 0.5, 1.0]
    queries = [(s, rng.normal(0.0, 0.5, 2)) for s in starts]
    grouped = solve_transport(problem, queries, mesh=1.0 / 16)
    for q, query in enumerate(queries):
        assert close(grouped[q], solve_transport(problem, [query], mesh=1.0 / 16)[0]), q


def test_batched_oracle_matches_point_queries():
    problem, rng = linear_problem()
    points = rng.normal(0.0, 0.5, (4, 2))
    for s in (0.0, 0.5, 1.0):
        batched = FlowSolutionOracle(problem, mesh=1.0 / 16)(s, points)
        pointwise = FlowSolutionOracle(problem, mesh=1.0 / 16)
        for x, fn in zip(points, batched):
            ref = pointwise(s, x)
            assert close(fn.value(x), ref.value(x))
            for p in range(1, 4):
                for alpha in itertools.combinations_with_replacement((1, 2), p):
                    assert close(fn.partial(x, alpha), ref.partial(x, alpha)), (s, alpha)


def test_oracle_batch_reuses_cached_points():
    problem, rng = linear_problem()
    points = rng.normal(0.0, 0.5, (3, 2))
    oracle = FlowSolutionOracle(problem, mesh=1.0 / 16)
    first = oracle(0.25, points[1])
    again = oracle(0.25, np.stack([points[0], points[1], points[0]]))
    assert again[1] is first and again[0] is again[2]


def test_blow_up_inside_a_batch_names_cell_and_row():
    system = VectorFieldSystem([PolynomialFunction(1, [{(2,): 1.0}])])  # dx = x² dW
    ramp = PiecewiseLinearPath(times=np.linspace(0.0, 1.0, 9), values=np.linspace(0.0, 40.0, 9))
    driver = lift_pl(ramp, gamma=0.5)
    xs = np.array([[0.01], [-0.02], [2.0], [0.0]])
    with pytest.raises(NumericalFailure, match=r"cell .*row 2"):
        solve_rde(xs, system, driver, driver.times)
    with pytest.raises(NumericalFailure, match=r"cell index \d+, row 2"):
        solve_flow_jets(xs, system, driver, driver.times, 1)


def test_particle_and_query_solves_never_build_the_lift(monkeypatch):
    problem, rng = linear_problem()

    def refuse(*args, **kwargs):
        raise AssertionError("the controlled lift was built")

    monkeypatch.setattr(rde, "ControlledPath", refuse)
    mu = ParticleMeasure(rng.normal(0.0, 0.5, (3, 2)))
    push_measure(problem.fields, problem.driver, mu, np.array([0.0, 1.0]), mesh=1.0 / 8)
    solve_transport(problem, [(0.0, np.zeros(2)), (0.5, np.ones(2))], mesh=1.0 / 8)
    with pytest.raises(AssertionError, match="lift"):
        solve_rde(np.zeros(2), problem.fields, problem.driver, problem.driver.times).path


def test_solve_rde_evaluates_the_table_once_per_cell(monkeypatch):
    problem, _ = linear_problem()
    table = derive_fields(problem.fields, problem.driver.level)
    calls = []
    original = table.values_at
    monkeypatch.setattr(table, "values_at", lambda x: calls.append(np.shape(x)) or original(x))
    partition = problem.driver.times
    sol = solve_rde(np.zeros((4, 2)), problem.fields, problem.driver, partition, table=table)
    assert calls == [(4, 2)] * (len(partition) - 1)
    with pytest.raises(ValueError, match="batch"):
        sol.path
    single = solve_rde(np.zeros(2), problem.fields, problem.driver, partition, table=table)
    calls.clear()
    assert single.path is single.path
    assert calls == [(len(partition), 2)]
