"""The per-cell kernels of the Davie step, and the CLI edges around them.

``deriv_tensors`` with a sequence of orders must give each order bit for
bit as a call for that order alone; ``graded_expansion`` must match the
per-arity loop it replaced (kept here) to 1e-12·max(1, scale), with
non-symmetric derivative tensors so that a mislaid argument slot shows;
``values_at`` makes one derivative call per stacked part.  Also: the CLI
builds its parser once, ``sig`` reports an overflowing lift with one line
on stderr, and ``PiecewiseLinearPath.from_csv`` rejects what the CLI
rejects.
"""

import argparse
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughkit import cli
from roughkit.algebra import expansion_plan, words_up_to
from roughkit.functions import PolynomialFunction, SmoothFunction, SumFunction, TrigPolynomial, graded_expansion
from roughkit.rde import VectorFieldSystem, derive_fields, solve_rde
from roughkit.roughpath import PiecewiseLinearPath, lift_pl, sample_fbm

finite = st.floats(-2.0, 2.0, allow_nan=False)


def close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


@st.composite
def functions(draw, n_in):
    """A trig, polynomial or generic (``SumFunction``) map R^n_in → R^n_out."""
    n_out = draw(st.integers(1, 3))

    def trig():
        return TrigPolynomial(n_in, [
            [(draw(finite), [draw(finite) for _ in range(n_in)], draw(st.floats(0.0, 6.3)))
             for _ in range(draw(st.integers(0, 3)))]
            for _ in range(n_out)
        ])

    def poly():
        return PolynomialFunction(n_in, [
            {tuple(draw(st.integers(0, 4)) for _ in range(n_in)): draw(finite) for _ in range(draw(st.integers(0, 3)))}
            for _ in range(n_out)
        ])

    family = draw(st.sampled_from(["trig", "poly", "sum"]))
    return {"trig": trig, "poly": poly, "sum": lambda: SumFunction([trig(), poly()])}[family]()


@settings(max_examples=80, deadline=None, database=None)
@given(st.data(), st.integers(1, 3), st.sampled_from([1, 5]), st.integers(0, 2**16))
def test_joint_orders_equal_single_order_calls_bit_for_bit(data, n_in, m, seed):
    fn = data.draw(functions(n_in))
    orders = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    xs = np.random.default_rng(seed).uniform(-1.5, 1.5, (m, n_in))
    joint = fn.deriv_tensors(xs, orders)
    assert isinstance(joint, list) and len(joint) == len(orders)
    for k, got in zip(orders, joint):
        want = fn.deriv_tensors(xs, k) if k else fn.values(xs)
        assert got.shape == want.shape == (m, fn.n_out) + (n_in,) * k
        assert np.array_equal(got, want), (type(fn).__name__, k)


def per_arity_loop(tensors, values, plan, width, present=None):
    """``graded_expansion`` as it was: per arity the outer products by
    fancy indexing, one matmul per channel, then the weights."""
    out = np.zeros((len(values), plan.targets, width))
    for parts, weights in plan.arities:
        if present is not None:
            keep = present[parts].all(axis=1)
            if not keep.any():
                continue
            parts, weights = parts[keep], weights[:, keep]
        args = values[:, parts[:, 0]]
        for j in range(1, parts.shape[1]):
            args = np.einsum("mpa,mpb->mpab", args, values[:, parts[:, j]]).reshape(args.shape[:2] + (-1,))
        terms = [np.einsum("mpa,mca->mpc", args, t.reshape(t.shape[:2] + (-1,))) for t in tensors(parts.shape[1])]
        out += np.einsum("tp,mpc->mtc", weights, np.concatenate(terms, axis=2))
    return out


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.sampled_from([(1, 1), (2, 2), (1, 2), (1, 3), (3, 3), (2, 3)]),
    st.sampled_from([1, 8, 64]), st.lists(st.integers(1, 2), min_size=1, max_size=2), st.integers(0, 2**16),
    st.sampled_from(["all", "random", "no-pairs"]),
)
def test_graded_expansion_matches_the_per_arity_loop(d, n, bounds, m, channels, seed, mask):
    lo, hi = bounds
    plan = expansion_plan(d, lo, hi)
    words = words_up_to(d, hi)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, len(words), n))
    # Not symmetric in the arguments, so a slot laid out wrongly changes the sum.
    derivs = {k: [rng.normal(size=(m, c) + (n,) * k) for c in channels] for k in range(1, hi + 1)}
    present = None
    if mask == "random":
        present = rng.random(len(words)) < 0.6
    elif mask == "no-pairs":
        # Only words of length hi: every arity above 1 is left without terms (when hi > 1).
        present = np.array([len(w) == hi for w in words])
    called = []
    got = graded_expansion(lambda k: called.append(k) or derivs[k], values, plan, sum(channels), present)
    want = per_arity_loop(derivs.__getitem__, values, plan, sum(channels), present)
    assert close(got, want)
    if mask == "no-pairs":
        assert called == [1]


def test_values_at_calls_deriv_tensors_once_per_stacked_part(monkeypatch):
    calls = []
    shared = SmoothFunction.deriv_tensors

    def counting(self, xs, k):
        calls.append(self)
        return shared(self, xs, k)

    monkeypatch.setattr(SmoothFunction, "deriv_tensors", counting)
    trig = [TrigPolynomial(2, [[(0.5, [1.0, 0.5], 0.1)], [(0.3, [0.2, -1.0], 0.0)]]) for _ in range(2)]
    mixed = [trig[0], SumFunction([trig[1], PolynomialFunction.identity(2)])]
    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=9, seed=3), gamma=0.3)
    for fields in (trig, mixed):
        system = VectorFieldSystem(fields)
        table = derive_fields(system, driver.level)
        for x in (np.array([0.2, -0.1]), np.zeros((4, 2))):
            calls.clear()
            table.values_at(x)
            assert calls == list(system.stacked)
        calls.clear()
        solve_rde(np.zeros(2), system, driver, driver.times, table=table)
        assert calls == list(system.stacked) * (len(driver.times) - 1)
    assert len(VectorFieldSystem(trig).stacked) == 1 and len(VectorFieldSystem(mixed).stacked) == 2


# -- the CLI around the step --------------------------------------------------------


def test_main_builds_the_parser_once_and_help_is_unchanged(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    path_csv = tmp_path / "path.csv"
    path_csv.write_text(sample_fbm(H=0.6, d=2, knots=5, seed=1).to_csv())
    for name in ("a.json", "b.json"):
        assert cli.main(["sig", "--path", str(path_csv), "--gamma", "0.5", "--out", str(tmp_path / name)]) == 0
    assert built.count("roughkit") == 1
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()
    for argv in (["--help"], ["rde", "--help"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
        cached = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(argv)
        assert cached == capsys.readouterr().out != ""


def test_sig_reports_an_overflowing_lift_with_one_line_and_no_warning(tmp_path, capsys):
    path_csv, out = tmp_path / "path.csv", tmp_path / "driver.json"
    path_csv.write_text("t,x1,x2\n0,0,0\n0.5,1e200,1\n1,0,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["sig", "--path", str(path_csv), "--gamma", "0.3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == ["numerical failure: the lift at knot 1 (t = 0.5) has a non-finite coefficient"]
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("", "empty CSV"),
    ("\n  \n", "empty CSV"),
    ("x,y\n0,1\n", "expected first column 't'"),
    ("t,x1\n0,0\n1,2,3\n", "data row 2 has 3 entries, the header 2"),
    ("t,x1\n0,0\n1\n", "data row 2 has 1 entries, the header 2"),
    ("t,x1\n0,0\n1,abc\n", "non-numeric CSV entry"),
    ("t,x1\n0,0\n1,nan\n", "data row 2 has a non-finite entry"),
    ("t,x1\n0,inf\n1,0\n", "data row 1 has a non-finite entry"),
    ("t,x1\n", "need at least two knots"),
])
def test_from_csv_rejects_what_the_cli_rejects(tmp_path, capsys, text, message):
    with pytest.raises(ValueError, match=message) as info:
        PiecewiseLinearPath.from_csv(text)
    path_csv = tmp_path / "path.csv"
    path_csv.write_text(text)
    assert cli.main(["sig", "--path", str(path_csv), "--gamma", "0.5", "--out", str(tmp_path / "d.json")]) == 2
    assert capsys.readouterr().err.strip() == f"input error: {path_csv}: {info.value}"
