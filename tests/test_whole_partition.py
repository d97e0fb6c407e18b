"""Whole-partition RDE path against the per-cell and per-field routes.

``solve_rde`` and ``rough_integral`` take every cell increment of a
partition from one ``increments`` batch, the driver JSON is loaded straight
into one (K, size) array, and ``values_at`` reads every field from one
stacked function.  Each is compared here with a test-local copy of the route
it replaced.  Also covered: input checks of the loader and of the CLI's
start points and grids, and ``at_level`` behind ``--solve-level``.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughkit.rde as rde
from roughkit.algebra import EMPTY_WORD, TruncatedTensor, Word, expansion_plan, words_up_to
from roughkit.cli import main
from roughkit.controlled import ControlledPath, rough_integral
from roughkit.functions import PolynomialFunction, TrigPolynomial, graded_expansion
from roughkit.rde import VectorFieldSystem, davie_step, derive_fields, solve_rde
from roughkit.roughpath import GeometricRoughPath, hoelder_level, lift_pl, sample_fbm
from roughkit.rpde import solve_partition


def close(a, b, tol):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejections
            code = e.code
    return code, err.getvalue()


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


# ---------------------------------------------------------------------------
# Test-local copies of the replaced routes.
# ---------------------------------------------------------------------------

def per_cell_rough_integral(X, letter, partition):
    """One ``increment`` and one coefficient read per cell and word."""
    reference = X.reference
    n_gamma = reference.hoelder_level
    idx = []
    for t in partition:
        j = int(np.searchsorted(X.times, t))
        idx.append(next(c for c in (j, j - 1) if 0 <= c < len(X.times) and abs(X.times[c] - t) <= 1e-9))
    idx = np.array(idx)
    tail = Word((letter,))
    values = np.zeros((len(partition), X.width))
    for p in range(len(partition) - 1):
        inc = reference.increment(partition[p], partition[p + 1])
        cell = np.zeros(X.width)
        for w, arr in X.coeffs.items():
            if len(w) > n_gamma - 1:
                continue
            c = inc.coeff(w + tail)
            if c != 0.0:
                cell = cell + c * arr[idx[p]]
        values[p + 1] = values[p] + cell
    lift = {EMPTY_WORD: values}
    for w, arr in X.coeffs.items():
        if len(w) <= n_gamma - 1:
            lift[w + tail] = arr[idx]
    return values, ControlledPath(reference, n_gamma + 1, X.width, partition, lift)


def per_term_load(data):
    """One ``Word`` and dict entry per term, one tensor per basepoint."""
    return np.stack([TruncatedTensor.from_json_dict(t).array for t in data["basepoints"]])


def per_field_values_at(table, xs):
    """``values_at`` with one value and derivative call per field."""
    d, n, fields = table.system.d, table.system.n, table.system.fields
    vals = np.empty((len(xs), len(table.words), n))
    vals[:, 0] = xs
    vals[:, 1 : d + 1] = np.stack([f.values(xs) for f in fields], axis=1)
    stacks = {k: [f.deriv_tensors(xs, k) for f in fields] for k in range(1, table.depth)}
    start = d + 1
    for level in range(2, table.depth + 1):
        block = graded_expansion(stacks.__getitem__, vals, expansion_plan(d, level - 1, level - 1), d * n)
        vals[:, start : start + d**level] = block.reshape(len(xs), -1, n)
        start += d**level
    return vals


def per_cell_solve(x0, system, driver, partition):
    """The Davie loop with one scalar ``increment`` per cell."""
    table = derive_fields(system, driver.level)
    states = [np.asarray(x0, dtype=float)]
    for p in range(len(partition) - 1):
        states.append(davie_step(states[-1], table, driver.increment(partition[p], partition[p + 1])))
    return np.stack(states)


# ---------------------------------------------------------------------------
# Equivalence.
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(1, 3),
    gamma=st.sampled_from([0.3, 0.4, 0.5]),
    extra_level=st.integers(0, 1),
    stride=st.integers(1, 3),
    width=st.integers(1, 2),
    full_order=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_rough_integral_matches_per_cell_loop(d, gamma, extra_level, stride, width, full_order, seed):
    rng = np.random.default_rng(seed)
    n_gamma = hoelder_level(gamma)
    driver = lift_pl(sample_fbm(H=0.5, d=d, knots=13, seed=seed), gamma=gamma, level=n_gamma + extra_level)
    order = n_gamma + 1 if full_order else n_gamma
    # Some words are left out, so absent coefficients take part too.
    words = [w for w in words_up_to(d, order - 1) if rng.random() < 0.8]
    X = ControlledPath(driver, order, width, driver.times,
                       {w: rng.normal(size=(len(driver.times), width)) for w in words})
    partition = driver.times[::stride]
    for letter in range(1, d + 1):
        got = rough_integral(X, letter, partition)
        want_values, want_lift = per_cell_rough_integral(X, letter, partition)
        assert close(got.values, want_values, 1e-12)
        assert set(got.lift.coeffs) == set(want_lift.coeffs)
        for w, arr in want_lift.coeffs.items():
            assert np.array_equal(got.lift.coeffs[w], arr), w


def test_rough_integral_rejects_off_grid_partition_points():
    driver = lift_pl(sample_fbm(H=0.5, d=2, knots=9, seed=1), gamma=0.5)
    X = ControlledPath(driver, 2, 1, driver.times, {EMPTY_WORD: np.ones(9), Word((1,)): np.ones(9)})
    with pytest.raises(ValueError, match="not on the controlled path grid"):
        rough_integral(X, 1, [0.0, 0.3, 1.0])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_dense_load_matches_per_term_load(d, level):
    driver = lift_pl(sample_fbm(H=0.6, d=d, knots=9, seed=10 * d + level), gamma=1.0 / level, level=level)
    data = json.loads(driver.to_json())
    loaded = GeometricRoughPath.from_json_dict(data)
    got = np.stack([g.tensor.array for g in loaded.basepoints])
    assert np.array_equal(got, per_term_load(data))
    assert loaded.to_json() == driver.to_json()


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(1, 3),
    depth=st.integers(1, 4),
    family=st.sampled_from(["trig", "polynomial", "mixed"]),
    points=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_values_at_matches_per_field_route(d, n, depth, family, points, seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng, d, n, family)
    # Mixed systems keep the per-field list; d = 1 "mixed" is one trig field.
    joint = {"trig": TrigPolynomial, "polynomial": PolynomialFunction, "mixed": TrigPolynomial}[family]
    if family == "mixed" and d > 1:
        assert system.stacked == system.fields
    else:
        assert len(system.stacked) == 1 and type(system.stacked[0]) is joint
    table = derive_fields(system, depth)
    xs = rng.normal(0, 0.7, (points, n))
    want = per_field_values_at(table, xs)
    got = table.values_at(xs)
    for k, w in enumerate(table.words):
        assert close(got[w], want[:, k], 1e-13), (family, w)
    single = table.values_at(xs[0])
    for k, w in enumerate(table.words):
        assert close(single[w], want[0, k], 1e-13), (family, w)


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(1, 2),
    n=st.integers(1, 3),
    family=st.sampled_from(["trig", "polynomial", "mixed"]),
    mesh=st.sampled_from([1.0 / 8.0, 1.0 / 16.0, 1.0 / 7.0, 0.3]),
    batch=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_solve_rde_matches_per_cell_increments(d, n, family, mesh, batch, seed):
    rng = np.random.default_rng(seed)
    system = random_system(rng, d, n, family)
    driver = lift_pl(sample_fbm(H=0.5, d=d, knots=9, seed=seed), gamma=0.4)
    # Knots every 1/8: meshes 1/8 and 1/16 stay on the grid, 1/7 and 0.3 do not.
    partition = solve_partition(driver, 0.0, driver.horizon, mesh)
    x0 = rng.normal(0, 0.3, (3, n) if batch else n)
    got = solve_rde(x0, system, driver, partition).states
    assert close(got, per_cell_solve(x0, system, driver, partition), 1e-13)


def test_solve_rde_on_a_one_point_partition():
    system = random_system(np.random.default_rng(0), 2, 2, "trig")
    driver = lift_pl(sample_fbm(H=0.5, d=2, knots=5, seed=0), gamma=0.4)
    for x0 in (np.array([0.1, -0.2]), np.array([[0.1, -0.2], [0.3, 0.0]])):
        states = solve_rde(x0, system, driver, [0.5]).states
        assert states.shape == (1,) + x0.shape and np.array_equal(states[0], x0)


# ---------------------------------------------------------------------------
# Structure: what the whole-partition path no longer calls, and still does.
# ---------------------------------------------------------------------------

def test_solve_and_residual_make_no_scalar_increment(monkeypatch):
    system = random_system(np.random.default_rng(1), 2, 3, "trig")
    driver = lift_pl(sample_fbm(H=0.4, d=2, knots=33, seed=1), gamma=0.3)

    def forbidden(*args, **kwargs):
        raise AssertionError("scalar increment called")

    monkeypatch.setattr(GeometricRoughPath, "increment", forbidden)
    solution = solve_rde(np.array([0.1, 0.0, -0.1]), system, driver, driver.times)
    assert solution.fixed_point_residual() <= 1e-10


def test_dense_load_builds_no_word(monkeypatch):
    data = json.loads(lift_pl(sample_fbm(H=0.4, d=2, knots=513, seed=2), gamma=0.3).to_json())
    GeometricRoughPath.from_json_dict(data)  # compiles the (d, N) tables once
    built = []
    original = Word.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Word, "__init__", counting)
    loaded = GeometricRoughPath.from_json_dict(data)
    assert len(loaded.times) == 513
    assert built == []


def test_davie_step_still_goes_through_values_at(monkeypatch):
    system = random_system(np.random.default_rng(2), 2, 2, "polynomial")
    driver = lift_pl(sample_fbm(H=0.5, d=2, knots=9, seed=2), gamma=0.4)
    calls = []
    original = rde.DerivedFieldTable.values_at

    def counting(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(rde.DerivedFieldTable, "values_at", counting)
    partition = solve_partition(driver, 0.0, 1.0, 1.0 / 16.0)
    solve_rde(np.array([0.1, 0.2]), system, driver, partition)
    assert len(calls) == len(partition) - 1


# ---------------------------------------------------------------------------
# Raising the level: at_level and --solve-level.
# ---------------------------------------------------------------------------

def test_at_level_of_a_json_driver_is_the_higher_lift():
    path = sample_fbm(H=0.6, d=2, knots=17, seed=3)
    for gamma in (0.5, 0.45):
        bare = GeometricRoughPath.from_json(lift_pl(path, gamma=gamma).to_json())
        assert bare.generator is None and bare.level == 2
        raised = bare.at_level(3)
        want = lift_pl(path, gamma, 3)
        assert raised.level == 3 and np.array_equal(raised.times, want.times)
        for g, h in zip(raised.basepoints, want.basepoints):
            assert close(g.tensor.array, h.tensor.array, 1e-12)
        for g, h in zip(raised.basepoints, bare.basepoints):
            assert close(g.tensor.at_level(2).array, h.tensor.array, 1e-12)
        assert bare.at_level(2) is bare
        with pytest.raises(ValueError, match="cannot lower"):
            bare.at_level(1)


# ---------------------------------------------------------------------------
# CLI: bad input exits 2 with a message naming the option or file.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("whole")
    path_csv = tmp / "path.csv"
    path_csv.write_text(sample_fbm(H=0.6, d=2, knots=17, seed=3).to_csv())
    driver = tmp / "driver.json"
    assert main(["sig", "--path", str(path_csv), "--gamma", "0.5", "--out", str(driver)]) == 0
    fields = tmp / "fields.json"
    fields.write_text(json.dumps({"n": 2, "d": 2, "fields": [
        {"family": "polynomial", "n_in": 2, "components": [
            [{"exponents": [0, 1], "coeff": 0.5}], [{"exponents": [1, 0], "coeff": -0.5}]]},
        {"family": "affine", "matrix": [[0.2, 0.0], [0.0, -0.2]], "offset": [0.1, 0.0]},
    ]}))
    terminal = tmp / "terminal.json"
    terminal.write_text(json.dumps({"family": "polynomial", "n_in": 2, "components": [[
        {"exponents": [2, 0], "coeff": 0.5}, {"exponents": [0, 2], "coeff": 0.5}]]}))
    return {"tmp": tmp, "driver": str(driver), "fields": str(fields), "terminal": str(terminal),
            "out": str(tmp / "out")}


def _corrupt(data, edit):
    data = json.loads(json.dumps(data))
    edit(data)
    return data


def _set_word(data, old, new):
    for term in data["basepoints"][3]["terms"]:
        if term["word"] == old:
            term["word"] = new


def _set_value(data, word, value):
    for term in data["basepoints"][3]["terms"]:
        if term["word"] == word:
            term["value"] = value


@pytest.mark.parametrize("name, edit, message", [
    ("letter_zero", lambda d: _set_word(d, [1, 2], [0, 2]), "basepoint 3: word [0, 2]"),
    ("letter_above_d", lambda d: _set_word(d, [1, 2], [1, 3]), "basepoint 3: word [1, 3]"),
    ("too_long", lambda d: d["basepoints"][3]["terms"].append({"word": [1, 1, 1], "value": 0.0}),
     "basepoint 3: word [1, 1, 1]"),
    ("string_value", lambda d: _set_value(d, [2], "0.5"), "must be numbers"),
    ("nan_value", lambda d: _set_value(d, [2], float("nan")), "basepoint 3 has a non-finite coefficient"),
    ("basepoint_d", lambda d: d["basepoints"][3].__setitem__("d", 3), "basepoint 3 has d=3, level=2; want 2, 2"),
    ("basepoint_level", lambda d: d["basepoints"][3].__setitem__("level", 3),
     "basepoint 3 has d=2, level=3; want 2, 2"),
    ("no_basepoints", lambda d: d.__setitem__("basepoints", []), "need at least one basepoint"),
])
def test_malformed_driver_exits_2_naming_the_file(workspace, name, edit, message):
    bad = workspace["tmp"] / f"{name}.json"
    bad.write_text(json.dumps(_corrupt(json.loads(open(workspace["driver"]).read()), edit)))
    code, err = run(["rde", "--driver", str(bad), "--fields", workspace["fields"],
                     "--x0", "0.1,0.2", "--out", workspace["out"]])
    assert code == 2, err
    assert str(bad) in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("x0", ["nan,0", "0.1,inf", "-inf,-inf"])
def test_non_finite_start_point_exits_2(workspace, x0):
    code, err = run(["rde", "--driver", workspace["driver"], "--fields", workspace["fields"],
                     f"--x0={x0}", "--out", workspace["out"]])
    assert code == 2 and "--x0" in err, err


@pytest.mark.parametrize("entry", ["inf", "nan", "-inf"])
def test_non_finite_query_exits_2(workspace, entry):
    query = workspace["tmp"] / f"query_{entry}.csv"
    query.write_text(f"s,x1,x2\n0.0,0.3,-0.2\n0.5,{entry},0.4\n")
    code, err = run(["transport", "--driver", workspace["driver"], "--fields", workspace["fields"],
                     "--terminal", workspace["terminal"], "--query", str(query),
                     "--mesh", "0.25", "--out", workspace["out"]])
    assert code == 2 and str(query) in err and "row 2" in err, err


def _verify_transport(workspace, *extra):
    report = workspace["tmp"] / "report.json"
    code, err = run(["verify", "transport", "--driver", workspace["driver"], "--fields", workspace["fields"],
                     "--terminal", workspace["terminal"], "--time-points", "65", "--anchors", "2",
                     "--mesh", str(1.0 / 64.0), "--report", str(report), *extra])
    return code, err, report


@pytest.mark.parametrize("grid", ["nan:0.5:2,-0.5:0.5:2", "-0.5:inf:2,-0.5:0.5:2", "-0.5:0.5:0,-0.5:0.5:2",
                                  "-0.5:0.5:-1,-0.5:0.5:2", "-0.5:0.5,-0.5:0.5:2", "a:0.5:2,-0.5:0.5:2"])
def test_bad_space_grid_exits_2(workspace, grid):
    code, err, _ = _verify_transport(workspace, f"--space-grid={grid}")
    assert code == 2 and "--space-grid" in err, err


@pytest.mark.parametrize("level", ["0", "-1", "1"])
def test_solve_level_below_the_driver_exits_2(workspace, level):
    code, err, _ = _verify_transport(workspace, "--space-grid=-0.4:0.4:2,-0.4:0.4:2", f"--solve-level={level}")
    assert code == 2, err


def test_solve_level_raises_a_json_driver(workspace):
    grid = "--space-grid=-0.4:0.4:2,-0.4:0.4:2"
    runs = []
    for extra in ([], ["--solve-level", "2"], ["--solve-level", "3"]):
        code, err, report = _verify_transport(workspace, grid, *extra)
        assert code in (0, 1), err
        runs.append(json.loads(report.read_text())["checks"])
    assert runs[1] == runs[0]  # the driver's own level
    assert runs[2] != runs[0]
