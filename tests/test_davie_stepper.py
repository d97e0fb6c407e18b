"""The one Davie stepper, ``rde._davie_steps``, and its schedule.

``_ragged_steps`` must yield, bit for bit, the (live, g, cell) steps of the
per-step gather it replaced (a test-local copy), both as the broadcast views
of one partition and as the precomputed takes of several.  The stepper
itself is checked on a counting state: each row takes exactly its own
partition's cells, comes back in the caller's order, and a non-finite
value in any live row is reported with that row and cell.  Every solver
runs exactly one stepper per solve, and empty batches and solves with no
partition keep their shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughkit import jets, rde, rpde
from roughkit.errors import NumericalFailure
from roughkit.functions import PolynomialFunction
from roughkit.jets import solve_flow_jets, terminal_flow_jets
from roughkit.rde import VectorFieldSystem, _davie_steps, _ragged_steps, solve_rde
from roughkit.roughpath import lift_pl, sample_fbm, solve_partition
from roughkit.rpde import FlowSolutionOracle, ParticleMeasure, TransportProblem, push_measure, solve_transport

STARTS = [0.0, 0.25, 0.3, 0.5, 0.9, 1.0]
# Knots every 1/8: meshes 1/8 and 1/16 stay on the grid, 1/7 and 0.3 do not.
MESHES = [1.0 / 8.0, 1.0 / 16.0, 1.0 / 7.0, 0.3]


def driver_for(seed, d=2):
    return lift_pl(sample_fbm(H=0.6, d=d, knots=9, seed=seed), gamma=0.4)


def gathered_steps(driver, partitions, owners):
    """The schedule before the one-partition views and the precomputed
    takes: increments batched by decreasing cell count, and per step a
    ``count_nonzero`` and one gather at offsets computed on the spot."""
    cells = np.array([len(p) - 1 for p in partitions], dtype=int)
    by_length = np.argsort(-cells, kind="stable")
    parts = [np.asarray(partitions[j], dtype=float) for j in by_length]
    incs = driver.increments(np.concatenate([p[:-1] for p in parts]), np.concatenate([p[1:] for p in parts]))
    first = (np.cumsum(cells[by_length]) - cells[by_length])[np.argsort(by_length)]
    order = np.argsort(-cells[owners], kind="stable")
    counts, first = cells[owners[order]], first[owners[order]]
    longest = int(counts.max(initial=0))
    steps = []
    for k in range(longest):
        live = int(np.count_nonzero(counts >= longest - k))
        cell = k - (longest - counts[:live])
        steps.append((live, incs.tensor.array[first[:live] + cell], cell))
    return order, steps


@settings(max_examples=60, deadline=None)
@given(
    starts=st.lists(st.sampled_from(STARTS), min_size=1, max_size=4),
    mesh=st.sampled_from(MESHES),
    m=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
def test_schedule_equals_the_per_step_gather_bit_for_bit(starts, mesh, m, seed):
    driver = driver_for(seed)
    partitions = [solve_partition(driver, s, driver.horizon, mesh) for s in starts]
    owners = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(partitions)), m))
    order, steps = _ragged_steps(driver, partitions, owners)
    want_order, want = gathered_steps(driver, partitions, owners)
    assert np.array_equal(order, want_order)
    got = list(steps)
    assert len(got) == len(want)
    for (live, g, cell), (want_live, want_g, want_cell) in zip(got, want):
        assert live == want_live
        assert g.shape == want_g.shape and np.array_equal(g, want_g)
        assert cell.shape == want_cell.shape and np.array_equal(cell, want_cell)


def test_one_partition_steps_are_read_only_views():
    driver = driver_for(3)
    _, steps = _ragged_steps(driver, [driver.times], np.zeros(3, dtype=int))
    for live, g, cell in steps:
        assert live == 3 and g.strides[0] == 0 and cell.strides[0] == 0
        assert not g.flags.writeable and not cell.flags.writeable


def counting_run(partitions, owners, poison=None):
    """``_davie_steps`` on rows (own index, steps taken): each step adds one
    to the live rows' count; ``poison`` = (row, cell) makes that row NaN
    once it has stepped over that cell."""
    seen = []

    def advance(rows, g):
        out = rows + np.array([0.0, 1.0])
        if poison is not None:
            out[(out[:, 0] == poison[0]) & (out[:, 1] == poison[1] + 1)] = np.nan
        return out

    state = np.column_stack([np.arange(len(owners), dtype=float), np.zeros(len(owners))])
    final = _davie_steps(driver_for(5), partitions, owners, state, advance,
                         lambda row, cell: f"row {row} cell {cell}", lambda rows: seen.append(rows.copy()))
    return final, seen


@settings(max_examples=40, deadline=None)
@given(
    starts=st.lists(st.sampled_from(STARTS), min_size=1, max_size=4),
    mesh=st.sampled_from(MESHES),
    m=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_every_row_takes_its_own_cells_and_returns_in_the_callers_order(starts, mesh, m, seed):
    driver, rng = driver_for(5), np.random.default_rng(seed)
    partitions = [solve_partition(driver, s, driver.horizon, mesh) for s in starts]
    owners = rng.permutation(np.repeat(np.arange(len(partitions)), m))
    final, seen = counting_run(partitions, owners)
    cells = np.array([len(p) - 1 for p in partitions])
    assert np.array_equal(final[:, 0], np.arange(len(owners)))
    assert np.array_equal(final[:, 1], cells[owners])
    assert len(seen) == cells.max() + 1 and not seen[0][:, 1].any()
    # A poisoned row, any one of them, is reported in the caller's order with its own cell.
    row = int(rng.integers(len(owners)))
    if cells[owners[row]]:
        cell = int(rng.integers(cells[owners[row]]))
        with pytest.raises(NumericalFailure, match=rf"^row {row} cell {cell}$"):
            counting_run(partitions, owners, poison=(row, cell))


def affine_problem(seed=1):
    rng = np.random.default_rng(seed)
    fields = VectorFieldSystem([PolynomialFunction.affine(rng.normal(0, 0.4, (2, 2)), rng.normal(0, 0.2, 2))
                                for _ in range(2)])
    terminal = PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5, (1, 1): 0.3}])
    return TransportProblem(fields=fields, terminal=terminal, driver=driver_for(seed))


@pytest.mark.parametrize("solve", [
    lambda p: solve_rde(np.zeros((3, 2)), p.fields, p.driver, solve_partition(p.driver, 0.0, 1.0, 0.1)),
    lambda p: solve_rde(np.zeros(2), p.fields, p.driver, p.driver.times),
    lambda p: solve_transport(p, [(0.0, np.zeros(2)), (0.5, np.ones(2)), (1.0, np.ones(2))], 0.1),
    lambda p: terminal_flow_jets(np.zeros((2, 2)), p.fields, p.driver, [p.driver.times, p.driver.times[3:]], 2),
    lambda p: push_measure(p.fields, p.driver, ParticleMeasure(np.zeros((4, 2))), np.array([0.0, 0.5, 1.0]), 0.1),
    lambda p: solve_flow_jets(np.zeros(2), p.fields, p.driver, p.driver.times, 2),
    lambda p: solve_flow_jets(np.zeros(2), p.fields, p.driver, p.driver.times, 1, method="extended"),
    lambda p: jets.partial_davie_check(np.zeros(2), p.fields, p.driver, [(1,)], n_spans=3, substeps=4, anchors=2),
    lambda p: FlowSolutionOracle(p, 0.1).jets([0.0, 0.25, 0.5], np.zeros((2, 2))),
])
def test_each_solve_runs_the_one_stepper_once(monkeypatch, solve):
    calls = []

    def spy(*args, **kwargs):
        calls.append(len(args[3]))
        return _davie_steps(*args, **kwargs)

    for module in (rde, jets, rpde):
        monkeypatch.setattr(module, "_davie_steps", spy)
    solve(affine_problem())
    assert len(calls) == 1


def test_empty_batch_keeps_one_state_per_knot():
    problem = affine_problem()
    partition = solve_partition(problem.driver, 0.0, 1.0, 0.1)
    states = solve_rde(np.zeros((0, 2)), problem.fields, problem.driver, partition).states
    assert states.shape == (len(partition), 0, 2)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("jet_order", [1, 2])
def test_no_partitions_give_empty_blocks(m, jet_order):
    problem = affine_problem()
    blocks = terminal_flow_jets(np.zeros((m, 2)), problem.fields, problem.driver, [], jet_order)
    assert [b.shape for b in blocks] == [(0, m) + (2,) * (p + 1) for p in range(jet_order + 1)]
    blocks = FlowSolutionOracle(problem, 0.1, jet_order=jet_order).jets([], np.zeros((m, 2)))
    assert [b.shape for b in blocks] == [(0, m) + (2,) * p for p in range(jet_order + 1)]
