"""Malformed function JSON is an input error at the loader.

``function_from_json_dict`` rejects a monomial listed twice in one
component, exponents that are not non-negative integers (2.7, ``true``,
"2"), booleans and strings for numbers, and non-finite coefficients,
amplitudes, waves, phases and affine entries.
Each case runs through ``main`` with the bad function as a field, as the
terminal data or as a test function, and must exit 2 with a message that
names the file, the component and the term, never with a traceback.
"""

import contextlib
import io
import json

import pytest

from roughkit.cli import main
from roughkit.functions import PolynomialFunction, function_from_json_dict
from roughkit.roughpath import sample_fbm

NAN, INF = float("nan"), float("inf")


def poly(*terms):
    """A scalar polynomial on R^2 with one component of (exponents, coeff) terms."""
    return {"family": "polynomial", "n_in": 2,
            "components": [[{"exponents": e, "coeff": c} for e, c in terms]]}


def trig(amp=0.3, wave=(1.0, 0.5), phase=0.1):
    return {"family": "trig", "n_in": 2, "components": [[{"amp": amp, "wave": list(wave), "phase": phase}]]}


def vector(fn):
    """A scalar case as a vector field on R^2: the bad component first."""
    good = poly(([1, 0], 0.2))["components"][0] if fn["family"] == "polynomial" else trig()["components"][0]
    return {**fn, "components": fn["components"] + [good]}


CASES = {
    "repeated monomial": (poly(([1, 0], 2.0), ([1, 0], 3.0)), "component 0, term 1", "listed twice"),
    "fractional exponent": (poly(([2.7, 0], 1.0),), "component 0, term 0", "exponent 2.7"),
    "boolean exponent": (poly(([True, 0], 1.0),), "component 0, term 0", "exponent True"),
    "negative exponent": (poly(([0, -1], 1.0),), "component 0, term 0", "exponent -1"),
    "string exponent": (poly((["2", 0], 1.0),), "component 0, term 0", "exponent '2'"),
    "boolean coefficient": (poly(([1, 0], True),), "component 0, term 0", "True is not a finite number"),
    "nan coefficient": (poly(([0, 0], 1.0), ([1, 0], NAN)), "component 0, term 1", "nan"),
    "inf coefficient": (poly(([1, 1], -INF),), "component 0, term 0", "-inf"),
    "nan amplitude": (trig(amp=NAN), "component 0, term 0", "nan"),
    "inf wave": (trig(wave=(1.0, INF)), "component 0, term 0", "inf"),
    "nan phase": (trig(phase=NAN), "component 0, term 0", "nan"),
}
AFFINE = {
    "nan matrix entry": ({"family": "affine", "matrix": [[0.2, 0.0], [NAN, -0.2]], "offset": [0.1, 0.0]},
                         "matrix component 1, term 0", "nan"),
    "inf offset": ({"family": "affine", "matrix": [[0.2, 0.0], [0.0, -0.2]], "offset": [0.1, INF]},
                   "offset component 1", "inf"),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("function_json")
    path = tmp / "path.csv"
    path.write_text(sample_fbm(H=0.6, d=2, knots=5, seed=1).to_csv())
    driver = tmp / "driver.json"
    assert run(["sig", "--path", str(path), "--gamma", "0.5", "--out", str(driver)])[0] == 0
    field = {"family": "affine", "matrix": [[0.2, 0.0], [0.0, -0.2]], "offset": [0.1, 0.0]}
    out = {"dir": tmp, "driver": str(driver), "out": str(tmp / "out")}
    for name, payload in [
        ("fields", {"n": 2, "d": 2, "fields": [field, field]}),
        ("terminal", poly(([2, 0], 0.5), ([0, 2], 0.5))),
        ("phis", {"phis": [poly(([1, 0], 1.0),)]}),
    ]:
        (tmp / f"{name}.json").write_text(json.dumps(payload))
        out[name] = str(tmp / f"{name}.json")
    (tmp / "query.csv").write_text("s,x1,x2\n0.0,0.3,-0.2\n0.5,0.1,0.4\n")
    (tmp / "mu.csv").write_text("w,x1,x2\n1.0,0.1,0.2\n0.5,-0.3,0.0\n")
    out["query"], out["mu"] = str(tmp / "query.csv"), str(tmp / "mu.csv")
    return out


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def commands(f):
    """Each command with the slot a bad function file can take."""
    solve = ["--driver", f["driver"], "--fields", f["fields"], "--mesh", "0.25"]
    return {
        "rde": (["rde", *solve, "--x0", "0.1,0.2", "--out", f["out"]], "--fields"),
        "transport": (["transport", *solve, "--terminal", f["terminal"], "--query", f["query"], "--out", f["out"]],
                      "--terminal"),
        "continuity": (["continuity", *solve, "--mu", f["mu"], "--phis", f["phis"], "--time", "0.5",
                        "--out", f["out"]], "--phis"),
        "verify transport": (["verify", "transport", *solve, "--terminal", f["terminal"],
                              "--space-grid=-0.5:0.5:2,-0.5:0.5:2", "--time-points", "5", "--anchors", "1",
                              "--report", f["out"]], "--terminal"),
    }


def bad_file(f, name, option, fn):
    """The bad function placed where ``option`` reads it."""
    if option == "--fields":
        payload = {"n": 2, "d": 2, "fields": [json.load(open(f["fields"]))["fields"][0],
                                               fn if fn["family"] == "affine" else vector(fn)]}
    elif option == "--phis":
        payload = {"phis": [fn]}
    else:
        payload = fn
    path = f["dir"] / f"{name.replace(' ', '_')}{option}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("command", ["rde", "transport", "continuity", "verify transport"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_functions_exit_2_naming_file_component_and_term(files, command, case):
    fn, where, what = CASES[case]
    argv, option = commands(files)[command]
    path = bad_file(files, case, option, fn)
    argv = [path if a == files[option.strip("-")] else a for a in argv]
    code, err = run(argv)
    assert code == 2, err
    assert "Traceback" not in err
    assert path in err and where in err and what in err, err


@pytest.mark.parametrize("case", sorted(AFFINE))
def test_non_finite_affine_fields_exit_2(files, case):
    fn, where, what = AFFINE[case]
    argv, option = commands(files)["rde"]
    path = bad_file(files, case, option, fn)
    code, err = run([path if a == files["fields"] else a for a in argv])
    assert code == 2 and path in err and where in err and what in err, err


def test_the_valid_files_still_run(files):
    for command, (argv, _) in commands(files).items():
        assert run(argv)[0] in (0, 1), command


def test_integral_exponents_and_round_trips_load():
    fn = function_from_json_dict(poly(([2.0, 0], 1.5), ([0, 1], -0.5)))
    assert fn.components == ({(2, 0): 1.5, (0, 1): -0.5},)
    same = PolynomialFunction(2, [{(1, 1): 0.25, (0, 0): 2.0}, {}])
    assert function_from_json_dict(same.to_json_dict()).components == same.components
