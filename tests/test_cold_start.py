"""Cold start: the package loads submodules on first use, each CLI command
loads what it runs, and ``sig`` writes its JSON from the dense array.

Also the input checks at the CSV boundary (empty, header-only and ragged
files exit 2) and the refusal to write a non-finite lift (exit 3).
"""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import roughkit
from roughkit.cli import main
from roughkit.roughpath import GeometricRoughPath, PiecewiseLinearPath, lift_pl, sample_fbm

PUBLIC_NAMES = {
    "CharacterCheck", "ComposedFunction", "ControlledNorms", "ControlledPath", "DerivedFieldTable",
    "DeshuffleTable", "DualityReport", "EMPTY_WORD", "FiniteDifferenceFunction", "FlowJetPath",
    "FlowSolutionOracle", "GeometricRoughPath", "GradedReport", "GroupTensor", "ItoReport",
    "JetFunction", "JetSpace", "JetVectorField", "NumericalFailure", "OrderCheck", "OrderFit",
    "ParticleEvolution", "ParticleMeasure", "PiecewiseLinearPath", "PolynomialFunction",
    "RdeSolution", "RoughIntegralResult", "SmoothFunction", "SumFunction", "TransportProblem",
    "TrigPolynomial", "TruncatedTensor", "VectorFieldSystem", "Word", "antipode",
    "check_controlled", "check_order", "compose", "compose_partial", "constant_controlled",
    "controlled_norms", "convolution", "coordinate_lift", "davie_step", "deconcat",
    "derive_fields", "deshuffles", "duality_check", "dyadic_pairs", "faa_di_bruno",
    "function_from_json_dict", "function_to_json_dict", "gamma_by_composition", "gamma_operator",
    "group_distance", "group_inverse", "hoelder_level", "homogeneous_norm", "is_character",
    "ito_check", "jet_apply", "jet_compose", "lift_pl", "lift_system", "max_coeff_diff",
    "partial_davie_check", "partial_davie_expansion", "product_partial", "push_measure",
    "rough_integral", "sample_fbm", "shuffle", "shuffle_coefficient", "solve_continuity",
    "solve_flow_jets", "solve_partition", "solve_rde", "solve_transport", "system_from_json_dict",
    "system_to_json_dict", "tensor_exp", "tensor_log", "terminal_flow_jets", "verify_continuity",
    "verify_transport", "word", "words_of_length", "words_up_to",
}
SUBMODULES = ("algebra", "controlled", "errors", "functions", "jets", "rde", "regression", "roughpath", "rpde")
SIG_MODULES = ["roughkit", "roughkit.algebra", "roughkit.cli", "roughkit.errors", "roughkit.roughpath"]

AFFINE_FIELDS = {
    "n": 2, "d": 2,
    "fields": [
        {"family": "affine", "matrix": [[0.0, 0.5], [-0.5, 0.0]], "offset": [0.1, 0.0]},
        {"family": "affine", "matrix": [[0.2, 0.0], [0.0, -0.2]], "offset": [0.0, 0.1]},
    ],
}

LOADED = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "roughkit" or m.startswith("roughkit."))
import roughkit.cli
seen = {"import": loaded()}
path, driver, fields, traj = sys.argv[1:]
assert roughkit.cli.main(["sig", "--path", path, "--gamma", "0.5", "--out", driver]) == 0
seen["sig"] = loaded()
assert roughkit.cli.main(["rde", "--driver", driver, "--fields", fields, "--x0", "0.1,0.2",
                          "--mesh", "0.125", "--out", traj]) == 0
seen["rde"] = loaded()
print(json.dumps(seen))
"""


def test_cli_commands_load_only_the_modules_they_run(tmp_path):
    path_csv, fields = tmp_path / "path.csv", tmp_path / "fields.json"
    path_csv.write_text(sample_fbm(H=0.6, d=2, knots=9, seed=1).to_csv())
    fields.write_text(json.dumps(AFFINE_FIELDS))
    src = os.path.dirname(os.path.dirname(os.path.abspath(roughkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    args = [str(path_csv), str(tmp_path / "driver.json"), str(fields), str(tmp_path / "traj.csv")]
    done = subprocess.run([sys.executable, "-c", LOADED, *args], env=env, capture_output=True, text=True,
                          check=True)
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen["import"] == SIG_MODULES
    assert seen["sig"] == SIG_MODULES
    assert not {"roughkit.jets", "roughkit.rpde", "roughkit.selftest"} & set(seen["rde"])
    assert "roughkit.rde" in seen["rde"]


def test_public_names_resolve_lazily_to_their_submodule_objects():
    assert len(roughkit.__all__) == 88
    assert set(roughkit.__all__) == PUBLIC_NAMES
    modules = [importlib.import_module(f"roughkit.{m}") for m in SUBMODULES]
    for name in PUBLIC_NAMES:
        value = getattr(roughkit, name)
        assert any(getattr(module, name, None) is value for module in modules), name
    for module in modules:
        assert getattr(roughkit, module.__name__.rsplit(".", 1)[1]) is module
    assert roughkit.solve_partition is importlib.import_module("roughkit.rpde").solve_partition
    assert PUBLIC_NAMES <= set(dir(roughkit))
    assert not hasattr(roughkit, "no_such_name")
    namespace: dict = {}
    exec("from roughkit import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)


# -- the dense sig writer ----------------------------------------------------------


def per_term_json(rough: GeometricRoughPath) -> str:
    """The writer ``sig`` used before: ``json.dumps`` of per-term dicts."""
    return json.dumps({
        "gamma": rough.gamma,
        "level": rough.level,
        "times": [float(t) for t in rough.times],
        "basepoints": [g.tensor.to_json_dict() for g in rough.basepoints],
    })


@st.composite
def lifts(draw):
    d, level = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    n_gamma = draw(st.integers(1, level))
    gamma = draw(st.sampled_from([1.0 / n_gamma, 1.0 / (n_gamma + 0.5), 0.999 / n_gamma]))
    knots = draw(st.integers(2, 65))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, knots - 1))])
    values = rng.normal(0.0, draw(st.sampled_from([0.01, 0.5, 3.0])), (knots, d))
    if draw(st.booleans()):
        values[:, draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.0, 1.25]))
    return lift_pl(PiecewiseLinearPath(times, values), gamma, level)


# No shrinking: an example lifts up to 65 knots at level 5, so shrinking a
# failure takes minutes; the unshrunk example is reported as it is.
@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(lifts())
def test_dense_writer_matches_the_per_term_json(rough):
    text = rough.to_json()
    assert text == per_term_json(rough)
    assert rough.to_json_dict() == json.loads(text)
    back = GeometricRoughPath.from_json(text)
    assert np.array_equal(back._stack, rough._stack)
    assert np.array_equal(back.times, rough.times)
    assert back.to_json() == text


def test_sig_refuses_a_non_finite_lift(tmp_path, capsys):
    path_csv, out = tmp_path / "path.csv", tmp_path / "driver.json"
    path_csv.write_text("t,x1\n0.0,0.0\n0.5,1.0\n1.0,1e200\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["sig", "--path", str(path_csv), "--gamma", "0.5", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "knot 2" in err and "t = 1.0" in err
    assert not out.exists()


# -- CSV input at the boundary ----------------------------------------------------


def sig(tmp_path, text: str) -> int:
    path_csv = tmp_path / "path.csv"
    path_csv.write_text(text)
    return main(["sig", "--path", str(path_csv), "--gamma", "0.5", "--out", str(tmp_path / "driver.json")])


def test_sig_rejects_empty_header_only_and_ragged_csvs(tmp_path, capsys):
    for text, words in [
        ("", ["empty CSV"]),
        ("t,x1,x2\n", ["two knots"]),
        ("t,x1,x2\n0.0,0.0,0.0\n1.0,1.0\n", ["data row 2"]),
    ]:
        assert sig(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "path.csv" in err and all(w in err for w in words) and "Traceback" not in err


def _measure_workspace(tmp_path, particles: str) -> dict:
    path_csv = tmp_path / "path.csv"
    path_csv.write_text(sample_fbm(H=0.6, d=2, knots=9, seed=3).to_csv())
    files = {name: tmp_path / name for name in
             ["driver.json", "fields.json", "terminal.json", "phis.json", "particles.csv", "query.csv"]}
    assert main(["sig", "--path", str(path_csv), "--gamma", "0.5", "--out", str(files["driver.json"])]) == 0
    files["fields.json"].write_text(json.dumps(AFFINE_FIELDS))
    files["terminal.json"].write_text(json.dumps({"family": "affine", "matrix": [[1.0, 0.0]], "offset": [0.0]}))
    files["phis.json"].write_text(json.dumps({"phis": [{"family": "affine", "matrix": [[0.0, 1.0]], "offset": [0.0]}]}))
    files["particles.csv"].write_text(particles)
    files["query.csv"].write_text("s,x1,x2\n")
    return {name: str(f) for name, f in files.items()}


def test_header_only_particles_exit_2_naming_the_file(tmp_path, capsys):
    f = _measure_workspace(tmp_path, "w,x1,x2\n")
    common = ["--driver", f["driver.json"], "--fields", f["fields.json"], "--mesh", "0.25"]
    for argv in [
        ["continuity", *common, "--mu", f["particles.csv"], "--phis", f["phis.json"], "--time", "1.0",
         "--out", str(tmp_path / "rho.csv")],
        ["verify", "continuity", *common, "--mu", f["particles.csv"], "--phis", f["phis.json"],
         "--report", str(tmp_path / "r.json")],
        ["verify", "duality", *common, "--mu", f["particles.csv"], "--terminal", f["terminal.json"],
         "--report", str(tmp_path / "r.json")],
    ]:
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "particles.csv" in err and "no particles" in err


def test_header_only_query_csv_writes_no_values(tmp_path, capsys):
    f = _measure_workspace(tmp_path, "w,x1,x2\n1.0,0.1,0.2\n")
    out = tmp_path / "u.csv"
    assert main(["transport", "--driver", f["driver.json"], "--fields", f["fields.json"],
                 "--terminal", f["terminal.json"], "--query", f["query.csv"], "--mesh", "0.25",
                 "--out", str(out)]) == 0
    assert out.read_text() == "s,x1,x2,u\n"
    assert "wrote 0 values" in capsys.readouterr().out
