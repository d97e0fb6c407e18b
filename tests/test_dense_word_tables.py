"""One dense word axis from the derived-field table to every Davie step.

``values_at``, ``recursion_values_at`` and ``jet_stacks`` return a
``WordArrays`` view: one dense array (or one per jet order) whose leading
axis runs over ``words_up_to(d, depth)``, read as a word-keyed mapping.
``davie_step``, ``terminal_flow_jets`` and the rpde verifiers contract the
array directly.  Each is compared here, bit for bit, with a test-local copy
of the word-keyed dict route or the stack loop it replaced.  Also covered:
the mapping semantics, that the hot paths hash no ``Word`` and stack no
array per cell, the driver/field dimension check, and the ``continuity``
command through ``solve_continuity``.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughkit.algebra import GroupTensor, Word, _wrap, expansion_plan, graded_shift, words_up_to
from roughkit.cli import _load_driver, _load_fields, _load_measure, _load_phis, main
from roughkit.errors import NumericalFailure
from roughkit.functions import MonomialSweep, PolynomialFunction, TrigPolynomial, _symmetric_gather, graded_expansion
from roughkit.jets import JetSpace, jet_compose, terminal_flow_jets
from roughkit.rde import VectorFieldSystem, WordArrays, as_batch, davie_step, derive_fields, solve_rde
from roughkit.regression import SLOPE_MARGIN, order_checks
from roughkit.roughpath import lift_pl, sample_fbm
from roughkit.rpde import (
    FlowSolutionOracle,
    ParticleMeasure,
    TransportProblem,
    _gamma_rows,
    _gamma_values_from_oracle,
    _select_time_pairs,
    push_measure,
    solve_partition,
    verify_continuity,
    verify_transport,
)

FAMILIES = st.sampled_from(["trig", "polynomial", "mixed"])


def random_system(rng, d, n, family):
    """d fields on R^n: trig, polynomial, or alternating between the two."""
    fields = []
    for i in range(d):
        if family == "trig" or (family == "mixed" and i % 2 == 0):
            comps = [[(rng.normal(0, 0.3), rng.normal(0, 1, n), rng.uniform(0, 6)) for _ in range(2)]
                     for _ in range(n)]
            fields.append(TrigPolynomial(n, comps))
        else:
            comps = [{tuple(rng.integers(0, 3, n)): rng.normal(0, 0.3) for _ in range(3)} for _ in range(n)]
            fields.append(PolynomialFunction(n, comps))
    return VectorFieldSystem(fields)


def driver_for(d, gamma, knots, seed):
    return lift_pl(sample_fbm(H=min(0.95, gamma + 0.05), d=d, knots=knots, seed=seed), gamma=gamma)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Test-local copies of the replaced routes.
# ---------------------------------------------------------------------------

def dict_values_at(table, x):
    """The bottom-up table, split into one dict entry per word."""
    xs, single = as_batch(x, table.system.n)
    d, n, parts = table.system.d, table.system.n, table.system.stacked
    vals = np.empty((len(xs), len(table.words), n))
    vals[:, 0] = xs
    vals[:, 1 : d + 1] = np.concatenate([f.values(xs) for f in parts], axis=1).reshape(len(xs), d, n)
    stacks = {k: [f.deriv_tensors(xs, k) for f in parts] for k in range(1, table.depth)}
    start = d + 1
    for level in range(2, table.depth + 1):
        block = graded_expansion(stacks.__getitem__, vals, expansion_plan(d, level - 1, level - 1), d * n)
        vals[:, start : start + d**level] = block.reshape(len(xs), -1, n)
        start += d**level
    rows = vals[0] if single else vals.swapaxes(0, 1)
    return dict(zip(table.words, rows))


def dict_recursion_values_at(table, x):
    xs, single = as_batch(x, table.system.n)
    out = {w: table.field(w).values(xs) for w in table.words}
    return {w: v[0] for w, v in out.items()} if single else out


def dict_jet_stacks(table, x, pmax):
    """One list of derivative tensors per word, appended word by word."""
    n = table.system.n
    xs, single = as_batch(x, n)
    if not table.polynomial:
        out = {w: [table.field(w).deriv_tensors(xs, p) for p in range(pmax + 1)] for w in table.words}
        return {w: [t[0] for t in ts] for w, ts in out.items()} if single else out
    orders = [_symmetric_gather(n, p) for p in range(pmax + 1)]
    alphas = [alpha for order, _ in orders for alpha in order]
    offsets = np.cumsum([0] + [len(order) for order, _ in orders])
    sweep = MonomialSweep(n, [table.field(w).derived(alpha).components for alpha in alphas for w in table.words])
    vals = sweep(xs).reshape(len(xs), len(alphas), len(table.words), n)
    out = {w: [] for w in table.words}
    for p, (_, gather) in enumerate(orders):
        full = np.moveaxis(vals[:, gather + offsets[p]], 1, -1)
        full = full.reshape(full.shape[:3] + (n,) * p)
        for widx, w in enumerate(table.words):
            out[w].append(full[0, widx] if single else full[:, widx])
    return out


def stacked_davie_step(x, table, g, route="shuffle"):
    values = dict_values_at(table, x) if route == "shuffle" else dict_recursion_values_at(table, x)
    stacked = np.stack([values[w] for w in words_up_to(g.dim, g.level)])
    return (g.tensor.array @ stacked.reshape(len(stacked), -1)).reshape(stacked.shape[1:])


def stacked_solve_rde(x0, system, driver, partition, route="shuffle"):
    table = derive_fields(system, driver.level)
    xs, single = as_batch(x0, system.n)
    states = [xs]
    with np.errstate(invalid="ignore", over="ignore"):
        for inc in driver.increments(partition[:-1], partition[1:]).tensor.array:
            states.append(stacked_davie_step(states[-1], table, GroupTensor(_wrap(driver.dim, driver.level, inc)), route))
    states = np.stack(states)
    return states[:, 0] if single else states


def stacked_terminal_flow_jets(xs, system, driver, partitions, jet_order, table):
    """The ragged multi-start stepper with the words re-stacked per step."""
    m = len(xs)
    space = JetSpace(system.n, jet_order)
    words = words_up_to(driver.dim, driver.level)
    cells = np.array([len(p) - 1 for p in partitions])
    order = np.argsort(-cells, kind="stable")
    cells = cells[order]
    longest = int(cells.max(initial=0))
    first = np.concatenate([[0], np.cumsum(cells)[:-1]])
    rows = [np.asarray(partitions[j], dtype=float) for j in order]
    incs = driver.increments(np.concatenate([p[:-1] for p in rows]), np.concatenate([p[1:] for p in rows]))
    current = space.unpack(space.canonical_state(np.tile(xs, (len(rows), 1))))
    for k in range(longest):
        live = int(np.count_nonzero(cells >= longest - k))
        cell = k - (longest - cells[:live])
        g = np.repeat(incs.tensor.array[first[:live] + cell], m, axis=0)
        jets = [b[: live * m] for b in current]
        stacks = dict_jet_stacks(table, jets[0], jet_order)
        davie = [
            np.einsum("aw,aw...->a...", g, np.stack([stacks[w][q] for w in words], axis=1))
            for q in range(jet_order + 1)
        ]
        for block, new in zip(current, jet_compose(davie, jets)):
            block[: live * m] = new
    rank = np.argsort(order)
    return [b.reshape((len(rows), m) + b.shape[1:])[rank] for b in current]


def stacked_gamma_values(table, fn, x, f_values, max_len):
    xs, single = as_batch(x, table.system.n)
    words = words_up_to(table.system.d, max_len)
    values = np.stack([np.reshape(f_values[u], xs.shape) for u in words], axis=1)
    out = _gamma_rows(table, lambda k: [fn.deriv_tensors(xs, k)], values, max_len)[:, :, 0]
    return dict(zip(words, out[0].tolist())) if single else dict(zip(words, out.T))


def stacked_verify_transport(problem, oracle, space_grid, time_grid, anchors_per_scale):
    driver = problem.driver
    n_gamma = driver.hoelder_level
    points = np.stack([np.atleast_1d(np.asarray(x, dtype=float)) for x in space_grid])
    table = derive_fields(problem.fields, max(driver.level, n_gamma))
    words = words_up_to(driver.dim, n_gamma)
    i, j, scale_ids = _select_time_pairs(time_grid, anchors_per_scale)
    needed, rows = np.unique(np.concatenate([i, j]), return_inverse=True)
    u = [b.reshape((len(needed) * len(points), 1) + b.shape[2:]) for b in oracle.jets(time_grid[needed].tolist(), points)]
    f_values = dict_values_at(table, points)
    f = np.tile(np.stack([f_values[w] for w in words], axis=1), (len(needed), 1, 1))
    gamma = _gamma_rows(table, lambda k: [u[k]], f, n_gamma).reshape(len(needed), len(points), -1).swapaxes(1, 2)
    incs = driver.increments(time_grid[i], time_grid[j]).tensor.array
    rhs = graded_shift(incs, gamma[rows[len(i) :]], driver.dim, n_gamma, prepend=False)
    defects = np.abs(gamma[rows[: len(i)]] - rhs).max(axis=2)
    thresholds = [(n_gamma + 1 - len(w)) * driver.gamma for w in words]
    return order_checks("transport", words, defects, time_grid[j] - time_grid[i], scale_ids, thresholds, SLOPE_MARGIN)


def stacked_verify_continuity(fields, driver, rho, phis, time_grid, anchors_per_scale):
    n_gamma = driver.hoelder_level
    table = derive_fields(fields, max(driver.level, n_gamma))
    words = words_up_to(driver.dim, n_gamma)
    i, j, scale_ids = _select_time_pairs(time_grid, anchors_per_scale)
    needed, rows = np.unique(np.concatenate([i, j]), return_inverse=True)
    measures = [rho(t) for t in time_grid[needed].tolist()]
    points = np.concatenate([m.points for m in measures])
    f_values = dict_values_at(table, points)
    f = np.stack([f_values[w] for w in words], axis=1)
    gamma = _gamma_rows(table, lambda k: [phi.deriv_tensors(points, k) for phi in phis], f, n_gamma)
    weighted = np.concatenate([m.weights for m in measures])[:, None, None] * gamma
    pairings = np.add.reduceat(weighted, np.cumsum([0] + [m.size for m in measures[:-1]]), axis=0)
    incs = driver.increments(time_grid[i], time_grid[j]).tensor.array
    rhs = graded_shift(incs, pairings[rows[: len(i)]], driver.dim, n_gamma, prepend=True)
    defects = np.abs(pairings[rows[len(i) :]] - rhs).max(axis=2)
    thresholds = [(n_gamma + 1 - len(w)) * driver.gamma for w in words]
    return order_checks("continuity", words, defects, time_grid[j] - time_grid[i], scale_ids, thresholds, SLOPE_MARGIN)


def assert_same_reports(got, want):
    assert list(got) == list(want)
    for w in want:
        a, b = got[w], want[w]
        assert (a.name, a.passed, a.scales, a.defects) == (b.name, b.passed, b.scales, b.defects), w
        assert a.slope == b.slope or (np.isnan(a.slope) and np.isnan(b.slope)), w


# ---------------------------------------------------------------------------
# The table views against the dict routes.
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, database=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(1, 3),
    depth=st.integers(1, 4),
    family=FAMILIES,
    points=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_values_match_the_dict_routes(d, n, depth, family, points, seed):
    rng = np.random.default_rng(seed)
    table = derive_fields(random_system(rng, d, n, family), depth)
    xs = rng.normal(0, 0.6, (points, n))
    for x in (xs, xs[0]):
        for got, want in ((table.values_at(x), dict_values_at(table, x)),
                          (table.recursion_values_at(x), dict_recursion_values_at(table, x))):
            assert isinstance(got, WordArrays)
            assert got.array.shape == (len(table.words),) + x.shape
            assert list(got) == list(want)
            for w in want:
                assert same(got[w], want[w]), (family, w)


@settings(max_examples=30, deadline=None, database=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(1, 3),
    depth=st.integers(1, 4),
    pmax=st.integers(0, 2),
    family=FAMILIES,
    points=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_jet_stacks_match_the_dict_route(d, n, depth, pmax, family, points, seed):
    # The Leibniz route (trig and mixed tables) gets smaller instances.
    if family != "polynomial" and d**depth * n ** (pmax + 1) > 64:
        depth, pmax = 2, min(pmax, 1)
    rng = np.random.default_rng(seed)
    table = derive_fields(random_system(rng, d, n, family), depth)
    xs = rng.normal(0, 0.6, (points, n))
    for x in (xs, xs[0]):
        got, want = table.jet_stacks(x, pmax), dict_jet_stacks(table, x, pmax)
        assert isinstance(got, WordArrays) and len(got.array) == pmax + 1
        for p, block in enumerate(got.array):
            assert block.shape == (len(table.words),) + x.shape + (n,) * p
        assert list(got) == list(want)
        for w in want:
            assert len(got[w]) == pmax + 1
            for p in range(pmax + 1):
                assert same(got[w][p], want[w][p]), (family, w, p)


def test_word_arrays_are_a_read_only_mapping():
    table = derive_fields(random_system(np.random.default_rng(0), 2, 2, "polynomial"), 3)
    words = words_up_to(2, 3)
    values = table.values_at(np.array([[0.1, 0.2], [0.3, -0.1]]))
    jets = table.jet_stacks(np.array([0.1, 0.2]), 2)
    for view in (values, jets):
        assert tuple(view) == words and len(view) == len(words) == 15
        assert list(view.keys()) == list(words)
        assert [w for w, _ in view.items()] == list(words)
        assert Word((2, 1)) in view and Word((1, 1, 1, 1)) not in view and Word((3,)) not in view
        for bad in (Word((1, 1, 1, 1)), Word((3,)), (1,)):
            with pytest.raises(KeyError):
                view[bad]
        assert view.get(Word((3,))) is None
    for k, w in enumerate(words):
        assert same(values[w], values.array[k])
        assert all(same(jets[w][p], jets.array[p][k]) for p in range(3))
    with pytest.raises(TypeError):
        values[Word((1,))] = 1
    # The word index is one cached dict per (d, depth).
    assert values._rows is jets._rows is table.values_at(np.zeros(2))._rows


# ---------------------------------------------------------------------------
# Readers against the stack loops.
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None, database=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(1, 3),
    family=FAMILIES,
    gamma=st.sampled_from([0.3, 0.4, 0.5]),
    mesh=st.sampled_from([1.0 / 8.0, 1.0 / 16.0, 1.0 / 7.0, 0.3]),
    batch=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_solve_rde_matches_the_stack_loop(d, n, family, gamma, mesh, batch, seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng, d, n, family)
    driver = driver_for(d, gamma, 9, seed)
    # Knots every 1/8: meshes 1/8 and 1/16 stay on the grid, 1/7 and 0.3 do not.
    partition = solve_partition(driver, 0.0, driver.horizon, mesh)
    x0 = rng.normal(0, 0.3, (3, n) if batch else n)
    want = stacked_solve_rde(x0, system, driver, partition)
    if not np.isfinite(want).all():
        with pytest.raises(NumericalFailure):
            solve_rde(x0, system, driver, partition)
        return
    assert same(solve_rde(x0, system, driver, partition).states, want)
    table = derive_fields(system, driver.level)
    g = driver.increment(0.0, 0.3)
    assert same(davie_step(x0, table, g, route="recursion"), stacked_davie_step(x0, table, g, route="recursion"))


@settings(max_examples=20, deadline=None, database=None)
@given(
    n=st.integers(1, 2),
    d=st.integers(1, 2),
    jet_order=st.integers(1, 2),
    family=FAMILIES,
    starts=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.6, 1.0]), min_size=1, max_size=3),
    m=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_terminal_flow_jets_match_the_stack_loop(n, d, jet_order, family, starts, m, seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng, d, n, family)
    driver = driver_for(d, 0.4, 5, seed)
    table = derive_fields(system, driver.level)
    partitions = [solve_partition(driver, s, 1.0, 0.3) for s in starts]
    xs = rng.normal(0, 0.3, (m, n))
    with np.errstate(over="ignore", invalid="ignore"):
        want = stacked_terminal_flow_jets(xs, system, driver, partitions, jet_order, table)
    if not all(np.isfinite(b).all() for b in want):
        with pytest.raises(NumericalFailure):
            terminal_flow_jets(xs, system, driver, partitions, jet_order, table)
        return
    got = terminal_flow_jets(xs, system, driver, partitions, jet_order, table)
    assert len(got) == len(want) == jet_order + 1
    assert all(same(a, b) for a, b in zip(got, want))


@settings(max_examples=10, deadline=None, database=None)
@given(d=st.integers(1, 2), gamma=st.sampled_from([0.3, 0.4, 0.5]), seed=st.integers(0, 10_000))
def test_verifier_defects_match_the_stack_loops(d, gamma, seed):
    rng = np.random.default_rng(seed)
    fields = VectorFieldSystem([
        PolynomialFunction.affine(rng.normal(0, 0.5, (2, 2)), rng.normal(0, 0.3, 2)) for _ in range(d)
    ])
    driver = driver_for(d, gamma, 17, seed)
    phi = PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5, (1, 1): rng.normal()}])
    time_grid = np.linspace(0.0, 1.0, 33)

    problem = TransportProblem(fields=fields, terminal=phi, driver=driver)
    oracle = FlowSolutionOracle(problem, mesh=1.0 / 16.0)
    grid = [rng.uniform(-0.4, 0.4, 2) for _ in range(3)]
    got = verify_transport(problem, oracle, grid, time_grid, anchors_per_scale=3).checks
    assert_same_reports(got, stacked_verify_transport(problem, oracle, grid, time_grid, 3))

    evolution = push_measure(fields, driver, ParticleMeasure(rng.normal(0.0, 0.4, (4, 2))), time_grid, 1.0 / 32.0)
    phis = [phi, PolynomialFunction(2, [{(1, 0): 1.0, (0, 3): 0.3}])]
    got = verify_continuity(fields, driver, evolution, phis, time_grid).checks
    assert_same_reports(got, stacked_verify_continuity(fields, driver, evolution, phis, time_grid, 6))

    table = derive_fields(fields, driver.level)
    points = evolution.measure_at(0.5).points
    for x in (points, points[0]):
        got = _gamma_values_from_oracle(table, phi, x, table.values_at(x), driver.hoelder_level)
        want = stacked_gamma_values(table, phi, x, dict_values_at(table, x), driver.hoelder_level)
        assert list(got) == list(want) and all(same(got[w], want[w]) for w in want)


# ---------------------------------------------------------------------------
# Structure: no Word hashing and no per-cell stack on the hot paths.
# ---------------------------------------------------------------------------

def test_hot_paths_hash_no_word_and_stack_nothing_per_cell(monkeypatch):
    rng = np.random.default_rng(4)
    system = random_system(rng, 2, 2, "polynomial")
    driver = driver_for(2, 0.4, 65, 4)
    table = derive_fields(system, driver.level)
    x0 = rng.normal(0, 0.3, (3, 2))
    partitions = [driver.times, driver.times[32:]]

    def run():
        solve_rde(x0, system, driver, driver.times, table=table)
        solve_rde(x0[0], system, driver, driver.times, table=table)
        terminal_flow_jets(x0, system, driver, partitions, 2, table)

    run()  # warm the compiled tables and sweeps
    hashed, stacked = [], []
    word_hash, stack = Word.__hash__, np.stack

    def counting_hash(self):
        hashed.append(1)
        return word_hash(self)

    def counting_stack(*args, **kwargs):
        stacked.append(1)
        return stack(*args, **kwargs)

    monkeypatch.setattr(Word, "__hash__", counting_hash)
    monkeypatch.setattr(np, "stack", counting_stack)
    assert len(driver.times) - 1 == 64
    run()
    assert hashed == []
    assert stacked == []


# ---------------------------------------------------------------------------
# Satellites: driver/field dimension check, continuity through solve_continuity.
# ---------------------------------------------------------------------------

def cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture
def files(tmp_path):
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        (tmp_path / f"driver{d}.json").write_text(driver_for(d, 0.5, 9, d).to_json())
    (tmp_path / "fields.json").write_text(json.dumps({"fields": [
        {"family": "polynomial", "n_in": 2, "components": [
            [{"exponents": [0, 1], "coeff": 0.5}], [{"exponents": [1, 0], "coeff": -0.5}]]},
        {"family": "affine", "matrix": [[0.2, 0.0], [0.0, -0.2]], "offset": [0.1, 0.0]},
    ]}))
    (tmp_path / "mu.csv").write_text("w,x1,x2\n" + "".join(
        f"{w:.3f},{a:.6f},{b:.6f}\n" for w, a, b in rng.uniform(0.1, 1.0, (5, 3))))
    (tmp_path / "phis.json").write_text(json.dumps({"phis": [
        {"family": "polynomial", "n_in": 2, "components": [[{"exponents": [0, 0], "coeff": 1.0}]]},
        {"family": "polynomial", "n_in": 2, "components": [[{"exponents": [2, 1], "coeff": 0.7}]]},
        {"family": "affine", "matrix": [[0.3, -1.1]], "offset": [0.2]},
    ]}))
    return tmp_path


@pytest.mark.parametrize("d", [1, 3])
def test_driver_and_fields_of_different_dimension_exit_2(files, d):
    common = ["--driver", str(files / f"driver{d}.json"), "--fields", str(files / "fields.json")]
    for argv in (
        ["rde", *common, "--x0", "0.1,0.2", "--out", str(files / "traj.csv")],
        ["continuity", *common, "--mu", str(files / "mu.csv"), "--phis", str(files / "phis.json"),
         "--time", "1.0", "--out", str(files / "rho.csv")],
        ["verify", "continuity", *common, "--mu", str(files / "mu.csv"), "--phis", str(files / "phis.json"),
         "--time-points", "17", "--report", str(files / "report.json")],
    ):
        code, err = cli(argv)
        assert code == 2, argv[0]
        assert "driver dimension must match the number of fields" in err and "Traceback" not in err


def test_library_entry_points_reject_a_dimension_mismatch():
    system = random_system(np.random.default_rng(1), 2, 2, "polynomial")
    table = derive_fields(system, 2)
    for d in (1, 3):
        driver = driver_for(d, 0.5, 9, d)
        with pytest.raises(ValueError, match="driver dimension must match the number of fields"):
            solve_rde(np.zeros(2), system, driver, driver.times)
        with pytest.raises(ValueError, match="driver dimension must match the number of fields"):
            verify_continuity(system, driver, lambda t: ParticleMeasure.dirac(np.zeros(2)),
                              [PolynomialFunction(2, [{(1, 0): 1.0}])], np.linspace(0, 1, 17))
        with pytest.raises(ValueError, match="does not match the table"):
            davie_step(np.zeros(2), table, driver.increment(0.0, 0.5))


def test_continuity_command_writes_the_pairings_of_the_replaced_loop(files):
    out = files / "rho.csv"
    for time in ("0.7", "0"):
        code, _ = cli(["continuity", "--driver", str(files / "driver2.json"), "--fields", str(files / "fields.json"),
                       "--mu", str(files / "mu.csv"), "--phis", str(files / "phis.json"),
                       "--time", time, "--mesh", "0.05", "--out", str(out)])
        assert code == 0
        # The hand-written loop the command used to run.
        driver, system = _load_driver(str(files / "driver2.json")), _load_fields(str(files / "fields.json"))
        mu, phis = _load_measure(str(files / "mu.csv")), _load_phis(str(files / "phis.json"))
        t = float(time)
        times = np.asarray([0.0, t]) if t > 0 else np.asarray([0.0])
        rho_t = push_measure(system, driver, mu, times, mesh=0.05).measure_at(t)
        want = ["phi,value"] + [f"{i},{repr(rho_t.pair_function(phi))}" for i, phi in enumerate(phis)]
        assert out.read_text() == "\n".join(want) + "\n"
