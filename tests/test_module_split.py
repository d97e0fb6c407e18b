"""The split that keeps a cold ``sig`` to the lift and its writer.

The shuffle side of ``algebra`` lives in ``shuffles`` and every command but
``sig`` in ``commands``; both load on first use, and the old names still
resolve through ``algebra`` and ``cli`` to the very same objects.  No
command loads ``numpy.ma``: the two merges that called ``np.unique``
without an inverse sort instead, and match it bit for bit.  Also here: the
running products of a lift against the ``convolution`` loop, and
``JetSpace.pack`` on an empty batch.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import roughkit
from roughkit import algebra, cli, commands, rpde, shuffles
from roughkit.algebra import TruncatedTensor, _wrap, convolution
from roughkit.functions import PolynomialFunction
from roughkit.jets import JetSpace, JetVectorField, jet_compose
from roughkit.rde import solve_rde, system_from_json_dict
from roughkit.roughpath import _running_products, _segment_exp, lift_pl, sample_fbm, solve_partition
from roughkit.rpde import ParticleMeasure, push_measure

MOVED_TO_SHUFFLES = (
    "deconcat", "shuffle_word_multiset", "shuffle_coefficient", "DeshuffleTable", "_DESHUFFLE_CACHE", "deshuffles",
    "_character_table", "CharacterCheck", "is_character", "ExpansionPlan", "expansion_plan", "expansion_gathers",
    "shift_table", "graded_shift", "shuffle",
)
MOVED_TO_COMMANDS = (
    "_cmd_rde", "_cmd_transport", "_cmd_continuity", "_cmd_verify", "_cmd_selftest", "_build_problem", "_read_json",
    "_load_json", "_load_driver", "_load_fields", "_load_phis", "_load_measure", "_parse_x0", "_parse_grid",
    "_report_payload", "_config_hash",
)


@pytest.mark.parametrize("old, new, names", [(algebra, shuffles, MOVED_TO_SHUFFLES),
                                             (cli, commands, MOVED_TO_COMMANDS)])
def test_moved_names_resolve_to_the_one_object_in_their_new_module(old, new, names):
    for name in names:
        assert name in vars(new) and name not in vars(old), name
        assert getattr(old, name) is getattr(new, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(old, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {old.__name__} import no_such_name", {})


def test_the_package_keeps_its_88_names():
    assert len(roughkit.__all__) == 88
    for name in ("deshuffles", "is_character", "shuffle", "CharacterCheck"):
        assert getattr(roughkit, name) is getattr(shuffles, name)
    assert roughkit.commands is commands and roughkit.shuffles is shuffles


# -- each command in a fresh process ------------------------------------------------

AFFINE_FIELDS = {
    "n": 2, "d": 2,
    "fields": [
        {"family": "affine", "matrix": [[0.0, 0.5], [-0.5, 0.0]], "offset": [0.1, 0.0]},
        {"family": "affine", "matrix": [[0.2, 0.0], [0.0, -0.2]], "offset": [0.0, 0.1]},
    ],
}
POLY = {"family": "polynomial", "n_in": 2,
        "components": [[{"exponents": [1, 0], "coeff": 1.0}, {"exponents": [0, 2], "coeff": 0.5}]]}

COLD = """
import json, sys
import roughkit.cli
code = roughkit.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(m for m in sys.modules if m.split(".")[0] in ("roughkit", "numpy"))}))
"""


def workspace(tmp_path) -> dict:
    files = {name: str(tmp_path / name) for name in
             ("path.csv", "driver.json", "fields.json", "terminal.json", "phis.json", "mu.csv", "query.csv")}
    (tmp_path / "path.csv").write_text(sample_fbm(H=0.6, d=2, knots=9, seed=4).to_csv())
    (tmp_path / "fields.json").write_text(json.dumps(AFFINE_FIELDS))
    (tmp_path / "terminal.json").write_text(json.dumps(POLY))
    (tmp_path / "phis.json").write_text(json.dumps({"phis": [POLY]}))
    (tmp_path / "mu.csv").write_text("w,x1,x2\n0.5,0.1,0.2\n0.5,-0.3,0.0\n")
    (tmp_path / "query.csv").write_text("s,x1,x2\n0.0,0.1,0.2\n0.5,0.0,0.3\n0.5,0.2,-0.1\n")
    return files


def commands_on(f: dict, out: str) -> dict[str, list[str]]:
    common = ["--driver", f["driver.json"], "--fields", f["fields.json"], "--mesh", "0.125"]
    return {
        "sig": ["sig", "--path", f["path.csv"], "--gamma", "0.5", "--out", f["driver.json"]],
        "rde": ["rde", *common, "--x0", "0.1,0.2", "--residual", "--out", out + ".csv"],
        "transport": ["transport", *common, "--terminal", f["terminal.json"], "--query", f["query.csv"],
                      "--out", out + ".csv"],
        "continuity": ["continuity", *common, "--mu", f["mu.csv"], "--phis", f["phis.json"], "--time", "1.0",
                       "--out", out + ".csv"],
        "verify transport": ["verify", "transport", *common, "--terminal", f["terminal.json"],
                             "--space-grid=-0.2:0.2:2,-0.2:0.2:2", "--time-points", "17", "--report", out],
        "verify continuity": ["verify", "continuity", *common, "--mu", f["mu.csv"], "--phis", f["phis.json"],
                              "--time-points", "17", "--report", out],
        "verify duality": ["verify", "duality", *common, "--terminal", f["terminal.json"], "--mu", f["mu.csv"],
                           "--time-points", "17", "--report", out],
        "selftest": ["selftest", "--fast", "--report", out],
    }


def test_no_command_loads_numpy_ma_and_only_sig_skips_commands_and_shuffles(tmp_path):
    f = workspace(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(roughkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for name, argv in commands_on(f, str(tmp_path / "out")).items():
        done = subprocess.run([sys.executable, "-c", COLD, json.dumps(argv)], env=env, capture_output=True,
                              text=True, check=True)
        seen = json.loads(done.stdout.strip().splitlines()[-1])
        assert seen["code"] in (0, 1), (name, done.stderr)
        modules = set(seen["modules"])
        assert "numpy.ma" not in modules, name
        lazy = {"roughkit.commands", "roughkit.shuffles"}
        assert not lazy & modules if name == "sig" else lazy <= modules, name


# -- the merges that sorted through np.unique ------------------------------------------

@settings(max_examples=100, deadline=None)
@given(knots=st.integers(2, 17), s=st.sampled_from([0.0, -0.0, 0.25, 0.5]), mesh=st.floats(0.02, 1.0),
       seed=st.integers(0, 999))
@example(knots=9, s=0.0, mesh=0.125, seed=0)
def test_solve_partition_merges_as_np_unique_did(knots, s, mesh, seed):
    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=knots, seed=seed), gamma=0.5)
    base = np.linspace(s, 1.0, max(1, int(math.ceil((1.0 - s) / mesh - 1e-12))) + 1)
    merged = np.unique(np.concatenate([base, driver.times[(driver.times > s + 1e-12) & (driver.times < 1.0 - 1e-12)]]))
    want = merged[np.concatenate([[True], np.diff(merged) > 1e-12])]
    assert solve_partition(driver, s, 1.0, mesh).tobytes() == want.tobytes()


def test_push_measure_merges_its_sample_times_as_np_unique_did(monkeypatch):
    fields = system_from_json_dict(AFFINE_FIELDS)
    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=9, seed=3), gamma=0.3)
    mu = ParticleMeasure(np.random.default_rng(3).normal(0.0, 0.5, (4, 2)))
    times = np.array([0.0, 0.25, 0.3, 0.3, 0.7, 1.0])  # on a knot, off it, repeated
    solved = []
    monkeypatch.setattr(rpde, "solve_rde", lambda *args, **kwargs: solved.append(args[3]) or solve_rde(*args, **kwargs))
    got = push_measure(fields, driver, mu, times, mesh=1.0 / 16).positions
    partition = np.unique(np.concatenate([solve_partition(driver, 0.0, 1.0, 1.0 / 16), times]))
    assert [p.tobytes() for p in solved] == [partition.tobytes()]
    sample = [int(np.argmin(np.abs(partition - t))) for t in times]
    assert got.tobytes() == solve_rde(mu.points, fields, driver, partition).states[sample].tobytes()


# -- the running products of a lift ---------------------------------------------------

def convolution_loop(steps: TruncatedTensor) -> np.ndarray:
    """The running products as ``_running_products`` formed them before: one ``convolution`` per knot."""
    d, level = steps.dim, steps.level
    out = [TruncatedTensor.unit(d, level).array]
    for row in steps.array:
        out.append(convolution(_wrap(d, level, out[-1]), _wrap(d, level, row)).array)
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), level=st.integers(1, 4), knots=st.integers(2, 40),
       scale=st.sampled_from([0.01, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
def test_running_products_match_the_convolution_loop_bit_for_bit(d, level, knots, scale, seed):
    deltas = np.random.default_rng(seed).normal(0.0, scale, (knots - 1, d))
    steps = _segment_exp(deltas, level).tensor
    got = _running_products(steps).tensor.array
    assert got.tobytes() == convolution_loop(steps).tobytes()


# -- JetSpace.pack on an empty batch ------------------------------------------------------

@pytest.mark.parametrize("n, jet_order", [(1, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("m", [0, 1, 3])
def test_pack_handles_every_batch_size_including_empty(n, jet_order, m):
    space = JetSpace(n, jet_order)
    z = np.random.default_rng(m).normal(size=(m, space.dim))
    blocks = space.unpack(z)
    assert space.pack(blocks).shape == (m, space.dim)
    assert space.pack(blocks).tobytes() == z.tobytes()
    # What JetVectorField.value packs: the composed jets of its blocks.
    field = PolynomialFunction(n, [{(1,) + (0,) * (n - 1): 1.0, (0,) * (n - 1) + (2,): 0.5} for _ in range(n)])
    stack = field.deriv_tensors(blocks[0], range(jet_order + 1))
    assert space.pack(jet_compose(stack, blocks)).shape == (m, space.dim)
    lifted = JetVectorField(field, space)
    assert lifted.values(z).shape == lifted.partials(z, (1,)).shape == (m, space.dim)
