"""The acceptance battery: every library-level guarantee as a named check.

Each criterion function returns CheckResult records with the measured
numbers; `run_selftest` executes the full battery (or a reduced-size fast
profile) deterministically from fixed seeds.  The pytest acceptance module
and the CLI `selftest` command both run these functions, so there is a
single source of truth for what "green" means.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import EMPTY_WORD, TruncatedTensor, Word, convolution, group_inverse, max_coeff_diff, words_of_length
from .controlled import ControlledPath, _remainders, check_controlled, compose, coordinate_lift, rough_integral
from .functions import JetFunction, PolynomialFunction, SmoothFunction, TrigPolynomial, compose_partial
from .jets import partial_davie_check, set_partitions, solve_flow_jets
from .rde import VectorFieldSystem, derive_fields, ito_check, solve_rde
from .regression import check_order, dyadic_pairs, pair_arrays
from .roughpath import GeometricRoughPath, PiecewiseLinearPath, lift_pl, sample_fbm
from .rpde import (
    FlowSolutionOracle,
    ParticleMeasure,
    TransportProblem,
    duality_check,
    solve_continuity,
    solve_transport,
    verify_continuity,
    verify_transport,
)
from .shuffles import deshuffles, is_character, shuffle_word_multiset


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.criterion} :: {self.name} :: {self.detail}"


def _result(criterion: str, name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(criterion=criterion, name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# 1. Algebraic exactness.
# ---------------------------------------------------------------------------

def _chen_residual(path: GeometricRoughPath, triples: np.ndarray) -> float:
    """max |W_{t_i t_k} − W_{t_i t_j} ⋆ W_{t_j t_k}| over index triples (i, j, k)
    with i <= j <= k: three increment batches and one convolution."""
    t = path.times[triples.T]
    direct = path.increments(t[0], t[2]).tensor
    composed = convolution(path.increments(t[0], t[1]).tensor, path.increments(t[1], t[2]).tensor)
    return float(np.max(max_coeff_diff(direct, composed), initial=0.0))


def criterion_algebra_exactness(seed: int = 101, segments: int = 16) -> list[CheckResult]:
    """d=2, N=5 piecewise-linear lift: Chen, character, inverse residuals."""
    rng = np.random.default_rng(seed)
    increments = rng.standard_normal((segments, 2)) * 0.5
    values = np.vstack([np.zeros((1, 2)), np.cumsum(increments, axis=0)])
    path = PiecewiseLinearPath(times=np.linspace(0.0, 1.0, segments + 1), values=values)
    rough = lift_pl(path, gamma=0.2, level=5)
    triples = np.array(list(itertools.combinations_with_replacement(range(len(rough.times)), 3)))
    chen_worst, n_triples = _chen_residual(rough, triples), len(triples)

    char_worst = 0.0
    inverse_worst = 0.0
    unit = TruncatedTensor.unit(2, 5)
    for g in rough.basepoints:
        char_worst = max(char_worst, is_character(g.tensor, tol=1e-10).violation)
        inv = group_inverse(g, tol=None)
        inverse_worst = max(
            inverse_worst, max_coeff_diff(convolution(g.tensor, inv.tensor), unit)
        )

    return [
        _result("1-algebra", f"chen-residual ({n_triples} triples)", chen_worst <= 1e-12,
                f"max {chen_worst:.3e} <= 1e-12"),
        _result("1-algebra", "character-property (all word pairs)", char_worst <= 1e-10,
                f"max violation {char_worst:.3e} <= 1e-10"),
        _result("1-algebra", "group-inverse residual", inverse_worst <= 1e-12,
                f"max {inverse_worst:.3e} <= 1e-12"),
    ]


# ---------------------------------------------------------------------------
# 2. Deshuffle / brute force.
# ---------------------------------------------------------------------------

def criterion_deshuffle_scan(max_len: int = 5, d: int = 3) -> list[CheckResult]:
    """Exact set equality of deshuffles against a shuffle-support scan.

    The scan enumerates every tuple of non-empty words with matching total
    length and expands its shuffle product; a tuple using a letter outside
    the target's alphabet cannot contribute, so scanning d=3 covers d <= 3.
    """
    support: dict[tuple[Word, ...], dict[Word, int]] = {}  # each scanned tuple's support, for the weight check

    def tuple_support(parts: tuple[Word, ...]) -> dict[Word, int]:
        acc: dict[Word, int] = {parts[0]: 1}
        for u in parts[1:]:
            nxt: dict[Word, int] = {}
            for w, mult in acc.items():
                for ww, m2 in shuffle_word_multiset(w, u).items():
                    nxt[ww] = nxt.get(ww, 0) + mult * m2
            acc = nxt
        return acc

    checked = 0
    mismatches: list[str] = []
    for length in range(1, max_len + 1):
        for k in range(1, length + 1):
            scan: dict[Word, set[tuple[Word, ...]]] = {}
            compositions = [
                c for c in itertools.product(range(1, length + 1), repeat=k) if sum(c) == length
            ]
            for comp in compositions:
                pools = [words_of_length(d, p) for p in comp]
                for parts in itertools.product(*pools):
                    support[parts] = tuple_support(parts)
                    for w, mult in support[parts].items():
                        if mult != 0:
                            scan.setdefault(w, set()).add(parts)
            for w in words_of_length(d, length):
                table = deshuffles(w, k)
                expected = scan.get(w, set())
                checked += 1
                if set(table.tuples) != expected:
                    mismatches.append(f"w={w}, k={k}")
                else:
                    for parts in table.tuples:
                        if table.weights[parts] != support[parts].get(w, 0):
                            mismatches.append(f"weight w={w}, parts={parts}")
    return [
        _result("2-deshuffle", f"support-scan equality ({checked} word/arity cases)",
                not mismatches, "exact set+weight equality" if not mismatches else f"mismatch at {mismatches[:3]}")
    ]


# ---------------------------------------------------------------------------
# 3. Faà di Bruno.
# ---------------------------------------------------------------------------

def partition_chain_rule(outer: SmoothFunction, inner: SmoothFunction, x, alpha) -> np.ndarray:
    """Independent oracle: the set-partition form of the chain rule."""
    x = np.asarray(x, dtype=float)
    y = inner.value(x)
    total = np.zeros(outer.n_out)
    for partition in set_partitions(len(alpha)):
        tensor = outer.deriv_tensor(y, len(partition))
        for block in partition:
            beta = tuple(alpha[i] for i in block)
            tensor = tensor @ inner.partial(x, beta)
        total = total + tensor
    return total


def random_smooth_pair(rng, n: int) -> tuple[SmoothFunction, SmoothFunction]:
    def poly():
        comps = []
        for _ in range(n):
            comp = {}
            for _ in range(3):
                expo = tuple(int(e) for e in rng.integers(0, 3, n))
                comp[expo] = comp.get(expo, 0.0) + float(rng.uniform(-2, 2))
            comps.append(comp)
        return PolynomialFunction(n, comps)

    def trig():
        comps = []
        for _ in range(n):
            comps.append([
                (float(rng.uniform(-1, 1)), rng.uniform(-1.5, 1.5, n), float(rng.uniform(0, 3)))
                for _ in range(2)
            ])
        return TrigPolynomial(n, comps)

    inner = poly() if rng.uniform() < 0.5 else trig()
    outer = poly() if rng.uniform() < 0.5 else trig()
    return outer, inner


def criterion_faa_di_bruno(seed: int = 303, n_pairs: int = 20) -> list[CheckResult]:
    """Deshuffle-form chain rule vs the set-partition form, |α| <= 4."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        n = int(rng.integers(1, 4))
        outer, inner = random_smooth_pair(rng, n)
        x = rng.uniform(-0.8, 0.8, n)
        for order in (1, 2, 3, 4):
            alpha = tuple(int(a) for a in rng.integers(1, n + 1, order))
            got = compose_partial(outer, inner, x, alpha)
            want = partition_chain_rule(outer, inner, x, alpha)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return [
        _result("3-faa-di-bruno", f"deshuffle vs partition form ({n_pairs} pairs, |α|<=4)",
                worst <= 1e-9, f"max rel error {worst:.3e} <= 1e-9"),
    ]


# ---------------------------------------------------------------------------
# 4. Derived-field dual construction.
# ---------------------------------------------------------------------------

def criterion_derived_fields(seed: int = 404, n_points: int = 50) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for d, n in [(2, 2), (3, 3), (2, 3)]:
        fields = []
        for _ in range(d):
            comps = []
            for _ in range(n):
                comp = {}
                for _ in range(3):
                    expo = tuple(int(e) for e in rng.integers(0, 3, n))
                    if sum(expo) <= 2:
                        comp[expo] = comp.get(expo, 0.0) + float(rng.uniform(-1, 1))
                comps.append(comp)
            fields.append(PolynomialFunction(n, comps))
        table = derive_fields(VectorFieldSystem(fields), 4)
        for _ in range(n_points // 3 + 1):
            x = rng.uniform(-0.7, 0.7, n)
            a = table.values_at(x)
            b = table.recursion_values_at(x)
            for w in table.words:
                scale = max(1.0, float(np.max(np.abs(b[w]))))
                worst = max(worst, float(np.max(np.abs(a[w] - b[w]))) / scale)
    out.append(_result("4-derived-fields", "recursion vs shuffle form (|w|<=4)",
                       worst <= 1e-9, f"max rel gap {worst:.3e} <= 1e-9"))

    mats = [rng.standard_normal((3, 3)) for _ in range(2)]
    table = derive_fields(VectorFieldSystem([PolynomialFunction.affine(A) for A in mats]), 4)
    linear_worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(3)
        vals = table.values_at(x)
        for w in table.words:
            expected = x.copy()
            for letter in w.letters:
                expected = mats[letter - 1] @ expected
            linear_worst = max(linear_worst, float(np.max(np.abs(vals[w] - expected))))
    out.append(_result("4-derived-fields", "linear closed form A_{i_k}···A_{i_1}x",
                       linear_worst <= 1e-12, f"max gap {linear_worst:.3e} <= 1e-12"))
    return out


# ---------------------------------------------------------------------------
# 5. Rough integral.
# ---------------------------------------------------------------------------

def criterion_rough_integral(mesh: float = 1e-4, seed: int = 505, fast: bool = False) -> list[CheckResult]:
    out = []
    if fast:
        mesh = 1e-3
    # (a) smooth driver, Riemann-Stieltjes oracle.
    ts = np.arange(0.0, 1.0 + mesh / 2, mesh)
    driver = lift_pl(
        PiecewiseLinearPath(times=ts, values=np.column_stack([ts, ts**2 / 2])),
        gamma=0.4,
        level=2,
    )
    X = coordinate_lift(driver, 1)
    value = rough_integral(X, 2, driver.times).values[-1, 0]
    mids = (ts[:-1] + ts[1:]) / 2
    oracle = float(np.sum(mids * np.diff(ts**2 / 2)))
    gap = abs(value - 1.0 / 3.0)
    tol = 1e-6 if not fast else 1e-4
    out.append(_result("5-rough-integral", f"∫W¹dW² vs Stieltjes oracle (mesh {mesh:g})",
                       gap <= tol and abs(oracle - 1 / 3) <= 1e-6,
                       f"|∫−1/3| = {gap:.3e} <= {tol:g}"))

    # (b) local-remainder order on a rough driver, two-sided around 3γ.  The
    # eq-2.8 remainder ∫_s^t − Σ_w ⟨W_{st}, e_{w·2}⟩Y_w(s) is R_ε of the lift.
    knots = 513 if fast else 1025
    rough = lift_pl(sample_fbm(H=0.4, d=2, knots=knots, seed=seed), gamma=0.4, level=2)
    Y = compose(PolynomialFunction(1, [{(2,): 1.0}]), coordinate_lift(rough, 1))
    rts = rough.times
    n_gamma = rough.hoelder_level
    scales = dyadic_pairs(len(rts), min_pairs=8)
    i, j, scale_ids = pair_arrays([pairs for _, pairs in scales])
    cell = np.abs(_remainders(rough_integral(Y, 2, rts).lift, i, j)[:, 0, 0])
    spans = [rts[stride] - rts[0] for stride, _ in scales]
    defects = np.bincount(scale_ids, weights=cell) / np.bincount(scale_ids)
    chk = check_order("eq-2.8", spans, defects, threshold=(n_gamma + 1) * 0.4, two_sided=True)
    out.append(_result("5-rough-integral",
                       f"local remainder slope ({len(spans)} dyadic scales)",
                       chk.passed, f"slope {chk.slope:.3f} within {chk.threshold:.2f}±0.15"))

    # (c) linearity.
    small = lift_pl(sample_fbm(H=0.45, d=2, knots=65, seed=seed + 1), gamma=0.4, level=2)
    A = coordinate_lift(small, 1)
    B = compose(PolynomialFunction(1, [{(2,): 1.0}]), A)
    a, b = 1.75, -0.6
    combo = rough_integral(a * A + b * B, 2, small.times).values
    parts = a * rough_integral(A, 2, small.times).values + b * rough_integral(B, 2, small.times).values
    lin_gap = float(np.max(np.abs(combo - parts)))
    out.append(_result("5-rough-integral", "linearity", lin_gap <= 1e-12,
                       f"max gap {lin_gap:.3e} <= 1e-12"))
    return out


# ---------------------------------------------------------------------------
# 6. Davie solver orders.
# ---------------------------------------------------------------------------

def criterion_solver_orders(fast: bool = False) -> list[CheckResult]:
    lam = 1.0
    system = VectorFieldSystem([PolynomialFunction(1, [{(1,): lam}])])
    out = []
    meshes = [2.0**-m for m in range(3, 8 if fast else 9)]
    for gamma, level in [(0.9, 1), (0.5, 2), (0.3, 3)]:
        errors = []
        for mesh in meshes:
            ts = np.arange(0.0, 1.0 + mesh / 2, mesh)
            driver = lift_pl(PiecewiseLinearPath(times=ts, values=ts[:, None].copy()),
                             gamma=gamma, level=level)
            sol = solve_rde(np.array([1.0]), system, driver, driver.times)
            errors.append(abs(sol.terminal()[0] - math.exp(lam)))
        slope = float(np.polyfit(np.log(meshes), np.log(errors), 1)[0])
        out.append(_result("6-davie-solver", f"global order, level-{level} lift",
                           abs(slope - level) <= 0.2,
                           f"slope {slope:.3f} within {level}±0.2"))
    return out


# ---------------------------------------------------------------------------
# 7. Flow jets.
# ---------------------------------------------------------------------------

def _smooth_driver_2d(knots: int, gamma: float, level: int | None = None) -> GeometricRoughPath:
    ts = np.linspace(0.0, 1.0, knots)
    values = 0.5 * np.column_stack([np.sin(ts), np.cos(2 * ts) - 1.0])
    return lift_pl(PiecewiseLinearPath(times=ts, values=values), gamma=gamma, level=level)


def _poly_fields_2d() -> VectorFieldSystem:
    return VectorFieldSystem([
        PolynomialFunction(2, [{(0, 1): 0.5, (0, 0): 0.1}, {(1, 0): -0.5}]),
        PolynomialFunction(2, [{(1, 0): 0.25}, {(0, 1): -0.25, (0, 0): 0.2}]),
    ])


def criterion_flow_jets(fast: bool = False) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(707)
    system = _poly_fields_2d()
    driver = _smooth_driver_2d(257 if not fast else 65, gamma=0.5)
    x0 = np.array([0.25, -0.15])

    jets = solve_flow_jets(x0, system, driver, driver.times, 1)
    h = 1e-5
    fd = np.empty((2, 2))
    for j in range(2):
        right, left = x0.copy(), x0.copy()
        right[j] += h
        left[j] -= h
        fd[:, j] = (
            solve_rde(right, system, driver, driver.times).terminal()
            - solve_rde(left, system, driver, driver.times).terminal()
        ) / (2 * h)
    rel = float(np.max(np.abs(jets.jet(1) - fd))) / max(1.0, float(np.max(np.abs(fd))))
    out.append(_result("7-flow-jets", "DX vs central finite differences",
                       rel <= 1e-4, f"rel gap {rel:.3e} <= 1e-4"))

    report = partial_davie_check(
        x0, system, driver, alphas=[(1,), (2,), (1, 2), (1, 1)],
        n_spans=6 if fast else 8, substeps=16 if fast else 32,
    )
    ok = all(c.passed for c in report.values())
    detail = ", ".join(f"{a}:{c.slope:.2f}/{c.threshold - 0.15:.2f}" for a, c in report.items())
    out.append(_result("7-flow-jets", "flow-derivative expansion slopes", ok, detail))

    mats = [rng.standard_normal((2, 2)) * 0.5 for _ in range(2)]
    lin_table = derive_fields(VectorFieldSystem([PolynomialFunction.affine(A) for A in mats]), 2)
    x = rng.standard_normal(2)
    stacks = lin_table.jet_stacks(x, 1)
    gap = float(np.max(np.abs(stacks[EMPTY_WORD][1] - np.eye(2))))
    for i in (1, 2):
        gap = max(gap, float(np.max(np.abs(stacks[Word((i,))][1] - mats[i - 1]))))
        for j in (1, 2):
            gap = max(gap, float(np.max(np.abs(
                stacks[Word((i, j))][1] - mats[j - 1] @ mats[i - 1]
            ))))
    out.append(_result("7-flow-jets", "two-term derivative expansion, linear fields",
                       gap <= 1e-12, f"max coefficient gap {gap:.3e} <= 1e-12"))

    small = _smooth_driver_2d(17, gamma=0.5)
    a = solve_flow_jets(x0, system, small, small.times, 2, method="composed")
    b = solve_flow_jets(x0, system, small, small.times, 2, method="extended")
    route_gap = max(float(np.max(np.abs(a.blocks[p] - b.blocks[p]))) for p in range(3))
    out.append(_result("7-flow-jets", "extended vs composed stepping routes",
                       route_gap <= 1e-9, f"max gap {route_gap:.3e} <= 1e-9"))
    return out


# ---------------------------------------------------------------------------
# 8. Itô formula.
# ---------------------------------------------------------------------------

def criterion_ito(fast: bool = False, seed: int = 808) -> list[CheckResult]:
    out = []
    mesh = 1e-3 if fast else 1e-4
    ts = np.arange(0.0, 1.0 + mesh / 2, mesh)
    values = 0.5 * np.column_stack([np.sin(ts), np.cos(2 * ts) - 1.0])
    driver = lift_pl(PiecewiseLinearPath(times=ts, values=values), gamma=0.5, level=2)
    system = _poly_fields_2d()
    sol = solve_rde(np.array([0.3, -0.2]), system, driver, driver.times)
    phi = PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5, (1, 0): 0.2}])
    report = ito_check(phi, sol)
    tol = 1e-6 if not fast else 1e-4
    out.append(_result("8-ito", f"identity residual (smooth driver, mesh {mesh:g})",
                       report.identity_residual <= tol,
                       f"residual {report.identity_residual:.3e} <= {tol:g}"))

    rough = lift_pl(sample_fbm(H=0.35, d=2, knots=257 if fast else 513, seed=seed),
                    gamma=0.3, level=3)
    rough_sol = solve_rde(np.array([0.2, -0.1]), system, rough, rough.times)
    rough_report = ito_check(phi, rough_sol, identity=False)
    ok = rough_report.passed
    worst = min((c.slope - (c.threshold - 0.15)) for c in rough_report.graded.values())
    out.append(_result("8-ito", "graded expansion slopes (PL-fBm, N=3)",
                       ok, f"min slope margin {worst:+.3f} over {len(rough_report.graded)} words"))
    return out


# ---------------------------------------------------------------------------
# 9. Transport.
# ---------------------------------------------------------------------------

def criterion_transport(fast: bool = False) -> list[CheckResult]:
    out = []
    rough = lift_pl(sample_fbm(H=0.35, d=2, knots=33, seed=904), gamma=0.3, level=3)
    c = np.array([[0.7, -0.3], [-0.4, 0.5]])
    const_problem = TransportProblem(
        fields=VectorFieldSystem([PolynomialFunction.constant(2, row) for row in c]),
        terminal=PolynomialFunction(2, [{(2, 0): 1.0, (0, 1): 0.5}]),
        driver=rough,
    )
    queries = [(0.25, np.array([0.3, -0.2])), (0.6, np.array([-1.0, 0.4]))]
    got = solve_transport(const_problem, queries, mesh=1e-2)
    worst = 0.0
    for val, (s, x) in zip(got, queries):
        inc = rough.increment(s, 1.0)
        shift = sum(inc.coeff(Word((i + 1,))) * c[i] for i in range(2))
        worst = max(worst, abs(val - const_problem.terminal.value(x + shift)[0]))
    out.append(_result("9-transport", "constant-field closed form",
                       worst <= 1e-8, f"max gap {worst:.3e} <= 1e-8"))

    grid = [np.array([a, b]) for a in np.linspace(-0.5, 0.5, 5) for b in np.linspace(-0.5, 0.5, 5)]
    if fast:
        grid = grid[::4]
    time_grid = np.linspace(0.0, 1.0, 2**8 + 1)
    configs = [
        ("gamma=0.3", lift_pl(sample_fbm(H=0.35, d=2, knots=33, seed=9), gamma=0.3, level=3), None),
        ("gamma=0.45", lift_pl(sample_fbm(H=0.5, d=2, knots=65, seed=9), gamma=0.45, level=2), 3),
        ("gamma=0.9", _smooth_driver_2d(65, gamma=0.9, level=1), 3),
    ]
    for label, driver, solve_level in configs:
        problem = TransportProblem(fields=_poly_fields_2d(),
                                   terminal=PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5, (1, 0): 0.2}]),
                                   driver=driver)
        oracle = FlowSolutionOracle(problem, mesh=1.0 / 128.0, solve_level=solve_level)
        report = verify_transport(problem, oracle, grid, time_grid,
                                  anchors_per_scale=2 if fast else 3)
        worst_margin = min(
            (c.slope - (c.threshold - c.margin)) if np.isfinite(c.slope) else np.inf
            for c in report.checks.values()
        )
        out.append(_result("9-transport", f"graded verification, {label} ({len(report.checks)} words)",
                           report.passed, f"min slope margin {worst_margin:+.3f}"))
    return out


# ---------------------------------------------------------------------------
# 10. Continuity and duality.
# ---------------------------------------------------------------------------

def criterion_continuity_duality(fast: bool = False) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(1001)
    rough = lift_pl(sample_fbm(H=0.35, d=2, knots=33, seed=10), gamma=0.3, level=3)
    fields = _poly_fields_2d()
    terminal = PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5, (1, 0): 0.2}])
    problem = TransportProblem(fields=fields, terminal=terminal, driver=rough)
    mu = ParticleMeasure(rng.normal(0.0, 0.4, (10, 2)), rng.uniform(0.5, 1.5, 10))

    one = PolynomialFunction.constant(2, [1.0])
    mass = solve_continuity(fields, rough, mu, 1.0, [one], mesh=0.02)[0]
    out.append(_result("10-continuity", "mass conservation",
                       abs(mass - mu.mass()) <= 1e-14,
                       f"|ρ_T(1) − μ(1)| = {abs(mass - mu.mass()):.3e} <= 1e-14"))

    x = np.array([0.15, -0.25])
    dirac_val = solve_continuity(fields, rough, ParticleMeasure.dirac(x), 1.0, [terminal], mesh=5e-3)[0]
    transport_val = solve_transport(problem, [(0.0, x)], mesh=5e-3)[0]
    out.append(_result("10-continuity", "delta measure matches transport",
                       abs(dirac_val - transport_val) <= 1e-10,
                       f"gap {abs(dirac_val - transport_val):.3e} <= 1e-10"))

    smooth = _smooth_driver_2d(257, gamma=0.3, level=3)
    smooth_problem = TransportProblem(fields=fields, terminal=terminal, driver=smooth)
    small_mu = ParticleMeasure(rng.normal(0.0, 0.4, (5, 2)), rng.uniform(0.5, 1.5, 5))
    report = duality_check(smooth_problem, small_mu, np.linspace(0.0, 1.0, 4),
                           mesh=2e-3 if fast else 1e-3)
    out.append(_result("10-duality", "constancy, smooth driver",
                       report.max_drift <= 1e-8, f"max drift {report.max_drift:.3e} <= 1e-8"))

    drifts, meshes = [], []
    for m in (16, 32, 64) if fast else (16, 32, 64, 128):
        mesh = 1.0 / m
        rep = duality_check(problem, small_mu, np.linspace(0.0, 1.0, 4), mesh=mesh)
        drifts.append(rep.max_drift)
        meshes.append(mesh)
    slope = float(np.polyfit(np.log(meshes), np.log(drifts), 1)[0])
    threshold = (rough.hoelder_level + 1) * rough.gamma - 1.0
    out.append(_result("10-duality", "drift refinement order (rough driver)",
                       slope >= threshold - 0.15,
                       f"slope {slope:.3f} >= {threshold:.2f} − 0.15"))
    return out


# ---------------------------------------------------------------------------
# 11. Negative controls.
# ---------------------------------------------------------------------------

def criterion_negative_controls(fast: bool = False) -> list[CheckResult]:
    out = []
    rough = lift_pl(sample_fbm(H=0.45, d=2, knots=257, seed=5), gamma=0.4, level=2)
    X = coordinate_lift(rough, 1)
    corrupted = ControlledPath(rough, X.order, 1, X.times, {EMPTY_WORD: X.primal})
    checks = check_controlled(corrupted)
    out.append(_result("11-negative", "check_controlled rejects zeroed coefficient",
                       not checks[EMPTY_WORD].passed,
                       f"ε slope {checks[EMPTY_WORD].slope:.3f} below {checks[EMPTY_WORD].threshold:.2f} − 0.15"))

    driver = lift_pl(sample_fbm(H=0.35, d=2, knots=33, seed=4), gamma=0.3, level=3)
    problem = TransportProblem(fields=_poly_fields_2d(),
                               terminal=PolynomialFunction(2, [{(2, 0): 0.5, (0, 2): 0.5}]),
                               driver=driver)
    oracle = FlowSolutionOracle(problem, mesh=1.0 / 64.0)

    def corrupted_oracle(s, x):
        jet = oracle(s, x)
        partials = {a: jet.partial(x, a).copy() for a in jet._partials}
        partials[(1,)] = partials[(1,)] + s
        return JetFunction(x, jet.value(x) + s * x[0], partials, jet.max_order)

    grid = [np.array([a, b]) for a in (-0.5, 0.0, 0.5) for b in (-0.5, 0.5)]
    report = verify_transport(problem, corrupted_oracle, grid, np.linspace(0.0, 1.0, 65),
                              anchors_per_scale=3)
    out.append(_result("11-negative", "verify_transport rejects drifted solution",
                       not report.checks[EMPTY_WORD].passed,
                       f"ε slope {report.checks[EMPTY_WORD].slope:.3f}"))

    rng = np.random.default_rng(1102)
    mu = ParticleMeasure(rng.normal(0.0, 0.4, (8, 2)), rng.uniform(0.5, 1.5, 8))
    phis = [PolynomialFunction(2, [{(1, 0): 1.0}]), PolynomialFunction(2, [{(1, 1): 1.0}])]
    frozen = verify_continuity(problem.fields, driver, lambda t: mu, phis,
                               np.linspace(0.0, 1.0, 65))
    out.append(_result("11-negative", "verify_continuity rejects frozen measure",
                       not frozen.checks[EMPTY_WORD].passed,
                       f"ε slope {frozen.checks[EMPTY_WORD].slope:.3f}"))
    return out


# ---------------------------------------------------------------------------
# Driver smoke suite (the only γ-parameterized entry).
# ---------------------------------------------------------------------------

def criterion_driver_smoke(gamma: float = 0.5, seed: int = 7) -> list[CheckResult]:
    """Lift an fBm driver at the requested γ and check its structure."""
    H = min(0.95, gamma + 0.05)
    driver = lift_pl(sample_fbm(H=H, d=2, knots=33, seed=seed), gamma=gamma)
    worst_char = max(
        is_character(g.tensor, tol=1e-10).violation for g in driver.basepoints
    )
    rng = np.random.default_rng(seed)
    chen = _chen_residual(driver, np.array([sorted(rng.integers(0, len(driver.times), 3)) for _ in range(24)]))
    X = coordinate_lift(driver, 1)
    checks = check_controlled(X)
    ok = worst_char <= 1e-10 and chen <= 1e-12 and all(c.passed for c in checks.values())
    return [
        _result("0-driver-smoke", f"fBm lift at gamma={gamma:g} (level {driver.level})", ok,
                f"char {worst_char:.2e}, chen {chen:.2e}, controlled words pass")
    ]


# ---------------------------------------------------------------------------
# Battery runner.
# ---------------------------------------------------------------------------

CRITERIA: dict[str, Callable[..., list[CheckResult]]] = {
    "1-algebra": lambda fast: criterion_algebra_exactness(),
    "2-deshuffle": lambda fast: criterion_deshuffle_scan(max_len=4 if fast else 5),
    "3-faa-di-bruno": lambda fast: criterion_faa_di_bruno(n_pairs=8 if fast else 20),
    "4-derived-fields": lambda fast: criterion_derived_fields(n_points=12 if fast else 50),
    "5-rough-integral": lambda fast: criterion_rough_integral(fast=fast),
    "6-davie-solver": lambda fast: criterion_solver_orders(fast=fast),
    "7-flow-jets": lambda fast: criterion_flow_jets(fast=fast),
    "8-ito": lambda fast: criterion_ito(fast=fast),
    "9-transport": lambda fast: criterion_transport(fast=fast),
    "10-continuity-duality": lambda fast: criterion_continuity_duality(fast=fast),
    "11-negative-controls": lambda fast: criterion_negative_controls(fast=fast),
}


def run_selftest(
    gamma: float = 0.5,
    fast: bool = False,
    progress: Callable[[str], None] | None = None,
    only: Sequence[str] | None = None,
) -> list[CheckResult]:
    """Run the acceptance battery; returns every check result in order.

    ``gamma`` parameterizes the driver smoke suite; the numbered criteria
    pin their own exponents.
    """
    results: list[CheckResult] = []
    suites: list[tuple[str, Callable[[bool], list[CheckResult]]]] = [
        ("0-driver-smoke", lambda fast: criterion_driver_smoke(gamma=gamma))
    ]
    suites.extend(CRITERIA.items())
    for key, fn in suites:
        if only is not None and key not in only:
            continue
        for result in fn(fast):
            results.append(result)
            if progress is not None:
                progress(result.line())
    return results
