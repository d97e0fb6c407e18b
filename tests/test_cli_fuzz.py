"""Hypothesis fuzz of the CLI exit-code contract.

Every run exits 0 (success), 1 (verification failed, only from ``verify``),
2 (input error) or 3 (numerical failure), and none prints a traceback.  The
inputs mix valid files with directories, missing paths, malformed JSON,
non-finite numbers and drivers that are not characters; a 5-knot driver
keeps each run short.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughkit.cli import main
from roughkit.roughpath import lift_pl, sample_fbm


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=5, seed=1), gamma=0.5).to_json_dict()

    def write(name, payload):
        path = tmp / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def corrupt(edit):
        data = json.loads(json.dumps(driver))
        edit(data)
        return data

    def set_term(data, word, value):
        for term in data["basepoints"][2]["terms"]:
            if term["word"] == word:
                term["value"] = value

    affine = {"family": "affine", "matrix": [[0.2, 0.0], [0.0, -0.2]], "offset": [0.1, 0.0]}
    square = {"family": "polynomial", "n_in": 2, "components": [
        [{"exponents": [2, 0], "coeff": 0.5}], [{"exponents": [0, 2], "coeff": 0.5}],
    ]}
    x1 = {"family": "polynomial", "n_in": 2, "components": [[{"exponents": [1, 0], "coeff": 1.0}]]}
    return {
        "out": str(tmp / "out"),
        "driver": [
            write("driver.json", driver),
            write("nan_coeff.json", corrupt(lambda d: set_term(d, [1], float("nan")))),
            write("not_character.json", corrupt(lambda d: set_term(d, [1, 2], 5.0))),
            write("nan_time.json", corrupt(lambda d: d["times"].__setitem__(1, float("nan")))),
            write("truncated.json", json.dumps(driver)[:40]),
            str(tmp),
            str(tmp / "missing.json"),
        ],
        "fields": [
            write("fields.json", {"n": 2, "d": 2, "fields": [affine, affine]}),
            write("bad_fields.json", {"n": 2, "d": 2, "fields": []}),
            str(tmp),
        ],
        "terminal": [write("terminal.json", {"family": "polynomial", "n_in": 2, "components": [
            [{"exponents": [2, 0], "coeff": 0.5}, {"exponents": [0, 2], "coeff": 0.5}],
        ]}), write("vector_terminal.json", square)],
        "query": [
            write("query.csv", "s,x1,x2\n0.0,0.3,-0.2\n0.5,0.1,0.4\n"),
            write("late_query.csv", "s,x1,x2\n7.0,0.3,-0.2\n"),
            write("empty.csv", ""),
        ],
        "mu": [
            write("mu.csv", "w,x1,x2\n1.0,0.1,0.2\n0.5,-0.3,0.0\n"),
            write("nan_mu.csv", "w,x1,x2\nnan,0.1,0.2\n"),
        ],
        "phis": [write("phis.json", {"phis": [x1]}), write("no_phis.json", {"other": []})],
        "path": [
            write("path.csv", sample_fbm(H=0.6, d=2, knots=5, seed=2).to_csv()),
            write("bad_path.csv", "t,x1\n0.0,0.0\n0.0,1.0\n"),
        ],
    }


numbers = ["0", "-1", "nan", "inf", "-inf", "abc"]


def command(files):
    """A command line with valid options except for at most one fault."""
    f = {k: v[1:] for k, v in files.items() if isinstance(v, list)}
    valid = {k: v[0] for k, v in files.items() if isinstance(v, list)}
    common = {"--mesh": ("0.25", numbers), "--out": (files["out"], [])}
    solve = {
        "--driver": (valid["driver"], f["driver"]),
        "--fields": (valid["fields"], f["fields"]),
    }
    commands = {
        ("sig",): {"--path": (valid["path"], f["path"]), "--gamma": ("0.5", numbers),
                   "--out": (files["out"], [])},
        ("rde",): {**solve, "--x0": ("0.1,0.2", ["nan,0", "1", "a"]), **common},
        ("transport",): {**solve, "--terminal": (valid["terminal"], f["terminal"]),
                         "--query": (valid["query"], f["query"]), **common},
        ("continuity",): {**solve, "--mu": (valid["mu"], f["mu"]), "--phis": (valid["phis"], f["phis"]),
                          "--time": ("0.5", numbers + ["2"]), **common},
    }
    for target in ("transport", "continuity", "duality"):
        commands[("verify", target)] = {
            **solve, "--terminal": (valid["terminal"], f["terminal"]), "--mu": (valid["mu"], f["mu"]),
            "--phis": (valid["phis"], f["phis"]), "--space-grid": ("-0.5:0.5:2,-0.5:0.5:2", []),
            "--time-points": ("5", []), "--anchors": ("1", []), "--mesh": ("0.25", numbers),
            "--report": (files["out"], []),
        }

    def with_fault(head, options):
        faults = [(k, bad) for k, (_, alts) in options.items() for bad in alts]

        def build(fault):
            argv = list(head)
            for key, (good, _) in options.items():
                argv.append(f"{key}={fault[1] if key == fault[0] else good}")
            return argv

        return st.one_of(st.just((None, None)), st.sampled_from(faults)).map(build)

    return st.sampled_from(sorted(commands)).flatmap(lambda head: with_fault(head, commands[head]))


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejections
            code = e.code
    return code, err.getvalue()


def test_exit_code_contract(files):
    @settings(max_examples=150, deadline=None, database=None)
    @given(command(files))
    def check(argv):
        code, err = run(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert code != 1 or argv[0] == "verify", (argv, err)
        assert "Traceback" not in err, (argv, err)

    check()


@pytest.mark.parametrize("mesh", ["0", "-1", "nan", "inf", "-inf"])
def test_mesh_must_be_positive_and_finite(files, mesh):
    code, err = run(["rde", "--driver", files["driver"][0], "--fields", files["fields"][0],
                     "--x0", "0.1,0.2", f"--mesh={mesh}", "--out", files["out"]])
    assert code == 2 and "--mesh" in err


@pytest.mark.parametrize("index, message", [
    (1, "basepoint 2 has a non-finite coefficient"),
    (2, "basepoint 2 is not a character"),
    (3, "finite"),
    (5, "Is a directory"),
])
def test_bad_driver_is_an_input_error(files, index, message):
    code, err = run(["rde", "--driver", files["driver"][index], "--fields", files["fields"][0],
                     "--x0", "0.1,0.2", "--out", files["out"]])
    assert code == 2 and message in err


@pytest.mark.parametrize("option, payload", [
    ("--driver", {"gamma": 0.5, "level": 2, "times": [0.0, 1.0],
                  "basepoints": [{"d": 2, "level": 2, "terms": [{"word": 1, "value": 1.0}]}] * 2}),
    ("--driver", ["not", "a", "rough", "path"]),
    ("--fields", {"n": 2, "d": 2, "fields": 5}),
    ("--fields", {"n": 2, "d": 1, "fields": [{"family": "polynomial", "n_in": 2, "components": [7]}]}),
    ("--terminal", {"family": "polynomial", "n_in": 2, "components": [[{"exponents": 2, "coeff": 1.0}]]}),
    ("--phis", {"phis": [{"family": "trig", "n_in": 2, "components": [[{"amp": 1.0}]]}]}),
    ("--phis", {"phis": 3}),
])
def test_wrong_structure_json_is_an_input_error(files, tmp_path, option, payload):
    bad = tmp_path / "wrong_structure.json"
    bad.write_text(json.dumps(payload))
    given_files = {
        "--driver": files["driver"][0], "--fields": files["fields"][0],
        "--terminal": files["terminal"][0], "--phis": files["phis"][0], option: str(bad),
    }
    if option == "--phis":
        argv = ["continuity", "--mu", files["mu"][0], "--time", "0.5", "--phis", given_files["--phis"]]
    else:
        argv = ["transport", "--query", files["query"][0], "--terminal", given_files["--terminal"]]
    argv += ["--driver", given_files["--driver"], "--fields", given_files["--fields"],
             "--mesh", "0.25", "--out", files["out"]]
    code, err = run(argv)
    assert code == 2, err
    assert str(bad) in err and "Traceback" not in err
