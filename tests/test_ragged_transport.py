"""Transport queries as one ragged batch, and polynomial partials of every
order from one monomial pass.

``solve_transport`` steps every query on its own start's partition in one
batch; it must match the per-start loop it replaced (kept here) to
1e-12·max(1, |u|), with one ``driver.increments`` call and one table
evaluation per step of the longest start.  Its failures name the query
(index in the caller's order and start) and, for a blow-up, the cell; the
CLI keeps exit codes 3 and 2.  ``PolynomialFunction._partials_by_order``
must give each order bit for bit as its own ``MonomialSweep`` does.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import roughkit.rde as rde
from roughkit.cli import main
from roughkit.errors import NumericalFailure
from roughkit.functions import MonomialSweep, PolynomialFunction, TrigPolynomial, _symmetric_gather
from roughkit.rde import VectorFieldSystem, derive_fields, solve_rde
from roughkit.roughpath import PiecewiseLinearPath, lift_pl, sample_fbm, solve_partition
from roughkit.rpde import TransportProblem, solve_transport

MESH = 1.0 / 8


def close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


def per_start_transport(problem, queries, mesh):
    """The loop ``solve_transport`` replaced: one ``solve_rde`` per start."""
    table = derive_fields(problem.fields, problem.driver.level)
    groups = {}
    for q, (s, _) in enumerate(queries):
        groups.setdefault(float(s), []).append(q)
    values = np.empty(len(queries))
    for s, members in groups.items():
        xs = np.stack([np.atleast_1d(np.asarray(queries[q][1], dtype=float)) for q in members])
        partition = solve_partition(problem.driver, s, problem.horizon, mesh)
        if len(partition) > 1:
            xs = solve_rde(xs, problem.fields, problem.driver, partition, table=table).terminal()
        values[members] = problem.terminal.values(xs)[:, 0]
    return values


def field(rng, n, family):
    if family == "trig":
        return TrigPolynomial(n, [
            [(float(rng.uniform(0.2, 0.6)), rng.normal(0.0, 1.0, n), float(rng.uniform(0.0, 6.3)))]
            for _ in range(n)
        ])
    comps = []
    for _ in range(n):
        comp = {(0,) * n: float(rng.normal(0.0, 0.2))}
        for j in range(n):
            comp[tuple(int(i == j) for i in range(n))] = float(rng.normal(0.0, 0.3))
            comp[tuple(2 * int(i == j) for i in range(n))] = float(rng.normal(0.0, 0.05))
        comps.append(comp)
    return PolynomialFunction(n, comps)


def problem_of(rng, n, family, gamma=0.4):
    families = {"trig": ["trig", "trig"], "polynomial": ["polynomial", "polynomial"], "mixed": ["trig", "polynomial"]}
    fields = VectorFieldSystem([field(rng, n, f) for f in families[family]])
    terminal = PolynomialFunction(n, [{
        **{tuple(2 * int(i == j) for i in range(n)): float(rng.normal()) for j in range(n)},
        (1,) + (0,) * (n - 1): float(rng.normal()),
        (0,) * n: 0.5,
    }])
    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=9, seed=int(rng.integers(1000))), gamma=gamma)
    return TransportProblem(fields=fields, terminal=terminal, driver=driver)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 2),
    family=st.sampled_from(["trig", "polynomial", "mixed"]),
    starts=st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.3, 0.5, 0.71, 0.9, 0.999]), min_size=1, max_size=6),
    seed=st.integers(0, 10_000),
)
@example(n=2, family="mixed", starts=[0.0, 1.0, 0.3, 0.3, 0.0], seed=11)
def test_ragged_transport_matches_the_per_start_loop(n, family, starts, seed):
    rng = np.random.default_rng(seed)
    problem = problem_of(rng, n, family)
    queries = [(s, rng.normal(0.0, 0.5, n)) for s in starts]
    got = solve_transport(problem, queries, MESH)
    want = per_start_transport(problem, queries, MESH)
    assert got.shape == (len(queries),)
    for q in range(len(queries)):
        assert close(got[q], want[q]), (q, got[q], want[q])


def test_empty_query_list():
    problem = problem_of(np.random.default_rng(1), 2, "polynomial")
    got = solve_transport(problem, [], MESH)
    assert got.shape == (0,)


def test_one_increment_batch_and_one_table_call_per_step(monkeypatch):
    problem = problem_of(np.random.default_rng(2), 2, "polynomial")
    starts = [0.5, 1.0, 0.0, 0.3, 0.0, 0.9]
    queries = [(s, np.full(2, 0.1 * q)) for q, s in enumerate(starts)]
    cells = [len(solve_partition(problem.driver, s, 1.0, MESH)) - 1 for s in starts]
    increments, rows, ends = [], [], []
    spies = [(problem.driver, "increments", lambda s, t: increments.append(len(s))),
             (rde.DerivedFieldTable, "values_at", lambda table, x: rows.append(len(x))),
             (problem.terminal, "values", lambda x: ends.append(np.array(x)))]
    for owner, name, record in spies:
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, original=original, record=record: record(*a) or original(*a))
    got = solve_transport(problem, queries, MESH)
    # One batch holds each distinct start's cells once.
    assert increments == [sum(len(solve_partition(problem.driver, s, 1.0, MESH)) - 1 for s in set(starts))]
    # Step k evaluates the rows with a cell left; the s = T row is never stepped.
    longest = max(cells)
    assert rows == [sum(c >= longest - k for c in cells) for k in range(longest)]
    # The terminal data is read once, at every end state; the s = T query's is its own point.
    assert len(ends) == 1 and ends[0].shape == (len(queries), 2)
    assert any((row == queries[1][1]).all() for row in ends[0])
    assert close(got, per_start_transport(problem, queries, MESH))


def test_a_start_outside_the_horizon_names_the_query():
    problem = problem_of(np.random.default_rng(3), 2, "polynomial")
    queries = [(0.0, np.zeros(2)), (0.5, np.zeros(2)), (1.5, np.ones(2)), (-0.25, np.ones(2))]
    with pytest.raises(ValueError, match=r"query 2: start s=1\.5 is outside \[0, 1\.0\]"):
        solve_transport(problem, queries, MESH)
    with pytest.raises(ValueError, match=r"query 0: start s=nan"):
        solve_transport(problem, [(float("nan"), np.zeros(2))], MESH)


def blow_up_problem():
    """dx = x² dW on a steep ramp: starts near 2 blow up, starts near 0 do not."""
    ramp = PiecewiseLinearPath(times=np.linspace(0.0, 1.0, 9), values=np.linspace(0.0, 40.0, 9))
    fields = VectorFieldSystem([PolynomialFunction(1, [{(2,): 1.0}])])
    terminal = PolynomialFunction(1, [{(1,): 1.0}])
    return TransportProblem(fields=fields, terminal=terminal, driver=lift_pl(ramp, gamma=0.5))


def test_a_blow_up_names_the_query_its_start_and_the_cell():
    problem = blow_up_problem()
    queries = [(0.5, [0.01]), (0.0, [-0.02]), (0.25, [2.0]), (1.0, [5.0])]
    with pytest.raises(NumericalFailure, match=r"query 2 from s=0\.25 blew up on cell \[") as exc:
        solve_transport(problem, queries, MESH)
    cell = str(exc.value)[str(exc.value).rindex("["):]
    # The per-start loop blows up on that query's own solve, on the same cell.
    with pytest.raises(NumericalFailure, match=re.escape(f"blew up on cell {cell}")):
        per_start_transport(problem, queries[2:3], MESH)


def write_cli_inputs(tmp_path, queries):
    ramp = PiecewiseLinearPath(times=np.linspace(0.0, 1.0, 9), values=np.linspace(0.0, 40.0, 9))
    (tmp_path / "path.csv").write_text(ramp.to_csv())
    assert main(["sig", "--path", str(tmp_path / "path.csv"), "--gamma", "0.5", "--out", str(tmp_path / "d.json")]) == 0
    (tmp_path / "fields.json").write_text(json.dumps({"n": 1, "d": 1, "fields": [
        {"family": "polynomial", "n_in": 1, "components": [[{"exponents": [2], "coeff": 1.0}]]},
    ]}))
    (tmp_path / "g.json").write_text(json.dumps(
        {"family": "polynomial", "n_in": 1, "components": [[{"exponents": [1], "coeff": 1.0}]]}
    ))
    (tmp_path / "q.csv").write_text("s,x1\n" + "".join(f"{s!r},{x!r}\n" for s, x in queries))
    return ["transport", "--driver", str(tmp_path / "d.json"), "--fields", str(tmp_path / "fields.json"),
            "--terminal", str(tmp_path / "g.json"), "--query", str(tmp_path / "q.csv"),
            "--mesh", repr(MESH), "--out", str(tmp_path / "u.csv")]


def test_cli_exit_codes_name_the_query(tmp_path, capsys):
    assert main(write_cli_inputs(tmp_path, [(0.5, 0.01), (0.25, 2.0)])) == 3
    assert "query 1 from s=0.25 blew up on cell [" in capsys.readouterr().err
    assert main(write_cli_inputs(tmp_path, [(0.5, 0.01), (2.0, 0.0)])) == 2
    assert "query 1: start s=2.0 is outside" in capsys.readouterr().err


def per_order_sweeps(fn, xs, orders):
    """Each order through its own ``MonomialSweep``."""
    return [
        MonomialSweep(fn.n_in, [fn.derived(a).components for a in _symmetric_gather(fn.n_in, k)[0]])(xs)
        for k in orders
    ]


polynomials = st.integers(1, 3).flatmap(lambda n_in: st.tuples(
    st.just(n_in),
    st.lists(
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * n_in), st.floats(-2.0, 2.0, allow_nan=False), max_size=4),
        min_size=1, max_size=3,
    ),
))


@settings(max_examples=60, deadline=None, database=None)
@given(
    poly=polynomials,
    orders=st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True),
    m=st.sampled_from([0, 1, 6]),
    seed=st.integers(0, 2**16),
)
@example(poly=(2, [{}, {}]), orders=[0, 1, 2], m=3, seed=0)  # the zero polynomial
@example(poly=(2, [{(0, 0): 1.5}]), orders=[2, 0], m=3, seed=0)  # a constant
@example(poly=(1, [{(3,): 1.0}]), orders=[0, 1, 2, 3, 4], m=0, seed=0)  # an empty batch
def test_one_monomial_pass_equals_the_per_order_sweeps_bit_for_bit(poly, orders, m, seed):
    n_in, comps = poly
    fn = PolynomialFunction(n_in, comps)
    xs = np.random.default_rng(seed).uniform(-1.5, 1.5, (m, n_in))
    want = per_order_sweeps(fn, xs, orders)
    calls = []
    original = MonomialSweep.__call__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MonomialSweep, "__call__", lambda self, x: calls.append(1) or original(self, x))
        got = fn._partials_by_order(xs, orders)
    assert not calls  # the sweeps lend their coefficients; the pass evaluates the monomials once
    for k, g, w in zip(orders, got, want):
        assert g.shape == w.shape == (m, len(_symmetric_gather(n_in, k)[0]), len(comps)), k
        assert g.tobytes() == w.tobytes(), k
    for k, tensor in zip(orders, fn.deriv_tensors(xs, orders)):
        assert tensor.tobytes() == fn.deriv_tensors(xs, k).tobytes(), k
