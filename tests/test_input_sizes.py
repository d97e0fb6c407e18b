"""Sizes read from input are bounded before anything of that size exists.

A (d, N) pair (``sig --level`` or ``--gamma`` over the path's or
``--fbm-dim``'s letters, ``verify --solve-level``, a driver JSON's
``level``) is checked by its word count, and a count of knots, cells or
points (``sig --fbm-knots``, the mesh's cells, ``--time-points``, the
``--space-grid`` counts) by itself; an fBm sample's sizes are checked
before it is drawn.  Each case exits 2 with a message naming the option or
the file and the value.  Every size here is computed, never allocated: a
spy fails the test if words of a level above 10 are ever enumerated or
counted out.
"""

import contextlib
import io
import json
import math

import pytest

from roughkit import algebra
from roughkit.cli import main
from roughkit.roughpath import _check_size, _word_count, lift_pl, sample_fbm


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sizes")
    path = sample_fbm(H=0.6, d=2, knots=5, seed=2)
    driver = lift_pl(path, gamma=0.4).to_json_dict()
    deep = json.loads(json.dumps(driver))
    deep["level"] = 40
    for basepoint in deep["basepoints"]:
        basepoint["level"] = 40
    affine = {"family": "affine", "matrix": [[0.2, 0.0], [0.0, -0.2]], "offset": [0.1, 0.0]}
    square = {"family": "polynomial", "n_in": 2, "components": [[{"exponents": [2, 0], "coeff": 0.5}]]}
    payloads = {"path.csv": path.to_csv(), "driver.json": driver, "deep.json": deep,
                "fields.json": {"n": 2, "d": 2, "fields": [affine, affine]}, "terminal.json": square,
                "mu.csv": "w,x1,x2\n1.0,0.1,0.2\n", "phis.json": {"phis": [square]}}
    out = {}
    for name, payload in payloads.items():
        out[name] = tmp / name
        out[name].write_text(payload if isinstance(payload, str) else json.dumps(payload))
    out["out"] = tmp / "out"
    return {k: str(v) for k, v in out.items()}


@pytest.fixture(autouse=True)
def no_deep_words(monkeypatch):
    for name in ("words_up_to", "_lengths"):
        original = getattr(algebra, name)

        def spy(d, level, original=original, name=name):
            assert level <= 10, f"{name}({d}, {level}) was called before the size check"
            return original(d, level)

        monkeypatch.setattr(algebra, name, spy)


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def verify(files, target, *extra):
    return ["verify", target, "--driver", files["driver.json"], "--fields", files["fields.json"],
            "--terminal", files["terminal.json"], "--mu", files["mu.csv"], "--phis", files["phis.json"],
            "--report", files["out"], *extra]


CASES = {
    "sig --level": (lambda f: ["sig", "--path", f["path.csv"], "--gamma", "0.4", "--level", "40", "--out", f["out"]],
                    ["level 40 (--level", "2.2e+12 words"]),
    "sig --gamma": (lambda f: ["sig", "--path", f["path.csv"], "--gamma", "1e-9", "--out", f["out"]],
                    ["level 999999999 (--level, or 1/--gamma)", "inf words"]),
    "sig --fbm-knots": (lambda f: ["sig", "--fbm-hurst", "0.5", "--gamma", "0.3", "--fbm-knots", "10000000",
                                   "--out", f["out"]], ["--fbm-knots 10000000", "1e+07 knots"]),
    "sig --fbm-dim": (lambda f: ["sig", "--fbm-hurst", "0.5", "--gamma", "0.3", "--fbm-dim", "100000",
                                 "--fbm-knots", "2", "--out", f["out"]],
                      ["over --fbm-dim 100000 letters", "1e+15 words"]),
    "driver level": (lambda f: ["rde", "--driver", f["deep.json"], "--fields", f["fields.json"], "--x0", "0,0",
                                "--out", f["out"]], ["deep.json", "level 40 over d = 2 letters"]),
    "--solve-level": (lambda f: verify(f, "transport", "--solve-level", "40"), ["--solve-level 40", "words"]),
    "--mesh": (lambda f: ["rde", "--driver", f["driver.json"], "--fields", f["fields.json"], "--x0", "0,0",
                          "--mesh", "1e-300", "--out", f["out"]], ["mesh 1e-300", "1e+300 cells"]),
    "--time-points": (lambda f: verify(f, "continuity", "--time-points", "1000000000000"),
                      ["--time-points 1000000000000", "1e+12 points"]),
    "--space-grid": (lambda f: verify(f, "transport", "--space-grid=0:1:100000,0:1:100000"),
                     ["--space-grid 0:1:100000,0:1:100000", "1e+10 points"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_an_oversized_input_exits_2_naming_it(files, case):
    argv, names = CASES[case]
    code, err = run(argv(files))
    assert code == 2, err
    assert err.startswith("input error: ") and "Traceback" not in err
    for name in names:
        assert name in err, (name, err)


def test_the_caps_are_1e5_words_and_1e6_cells_or_points():
    _check_size("a tensor", _word_count(1, 99_999), "words")
    _check_size("a grid", 10**6, "points")
    with pytest.raises(ValueError, match=r"^a tensor needs 1e\+05 words, more than the 1e\+05 allowed$"):
        _check_size("a tensor", 10**5 + 1, "words")
    with pytest.raises(ValueError, match=r"^a partition needs 1e\+06 cells, more than the 1e\+06 allowed$"):
        _check_size("a partition", 10**6 + 0.5, "cells")
    assert _word_count(2, 15) == 2**16 - 1 and _word_count(3, 10) == (3**11 - 1) // 2
    assert _word_count(1, 7) == 8 and _word_count(2, 64) == math.inf


def test_an_fbm_sample_is_capped_at_4097_knots():
    _check_size("a sample", 2**12 + 1, "knots")
    with pytest.raises(ValueError, match=r"^a sample needs 4\.1e\+03 knots, more than the 4097 allowed$"):
        _check_size("a sample", 2**12 + 2, "knots")
