"""Rough transport and continuity equations.

The backward transport equation is solved along characteristics:
u(s, x) = g(X^{s,x}_T) with X the Davie-scheme RDE flow.  The forward
continuity equation is solved by pushing a finite weighted particle cloud
through the same flow (weights never change, so mass is conserved exactly
and the measure solution is realized with zero spatial discretization
error).

Both solution notions are *defined* through graded defect estimates: for
every word w up to N_γ,

  transport:  Γ_w u_s(x)  ≈ Σ_{|v| ≤ N_γ−|w|} Γ_{wv} u_t(x) ⟨W_{st}, e_v⟩
  continuity: ρ_t(Γ_w φ)  ≈ Σ_{|v| ≤ N_γ−|w|} ρ_s(Γ_{wv} φ) ⟨W_{st}, e_v⟩

with remainder order (N_γ+1−|w|)γ.  The verifiers here evaluate those
defects on supplied grids ("uniformly on compacts" is realized as a max
over the space grid, "uniformly in φ" as a max over the supplied test
family) and regress the orders scale by scale.  Spatial derivatives of the
flow-built solution come from flow jets chained into the terminal data by
the higher-order chain rule, never from finite differences.

The duality between the two equations — r ↦ ρ_r(u_r) is constant — is
implemented as a cross-module integration check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .algebra import Word, expansion_plan, words_up_to
from .functions import JetFunction, SmoothFunction, compose_partial, graded_expansion
from .jets import solve_flow_jets
from .rde import (
    DerivedFieldTable,
    VectorFieldSystem,
    as_batch,
    derive_fields,
    pair_increment_coeffs,
    solve_rde,
)
from .regression import SLOPE_MARGIN, OrderCheck, check_order, dyadic_pairs
from .roughpath import GeometricRoughPath

PMap = Callable[[Callable, Iterable], list]


def _serial_map(fn, items) -> list:
    return [fn(item) for item in items]


def solve_partition(driver: GeometricRoughPath, s: float, t: float, mesh: float) -> np.ndarray:
    """Uniform mesh points of [s, t] merged with the driver's knots.

    Keeping the knots in the partition makes each cell increment exact for
    piecewise-linear drivers.
    """
    if not 0.0 <= s <= t <= driver.horizon + 1e-12:
        raise ValueError(f"need 0 <= s <= t <= horizon, got [{s}, {t}]")
    if mesh <= 0:
        raise ValueError("mesh must be positive")
    if t == s:
        return np.array([s])
    n_cells = max(1, int(math.ceil((t - s) / mesh - 1e-12)))
    base = np.linspace(s, t, n_cells + 1)
    knots = driver.times[(driver.times > s + 1e-12) & (driver.times < t - 1e-12)]
    merged = np.unique(np.concatenate([base, knots]))
    # Collapse near-duplicates from the merge.
    keep = np.concatenate([[True], np.diff(merged) > 1e-12])
    return merged[keep]


@dataclass(frozen=True)
class TransportProblem:
    """Terminal-value rough transport problem data."""

    fields: VectorFieldSystem
    terminal: SmoothFunction
    driver: GeometricRoughPath

    def __post_init__(self):
        n_gamma = self.driver.hoelder_level
        if self.terminal.n_in != self.fields.n or self.terminal.n_out != 1:
            raise ValueError("terminal data must map the state space to scalars")
        if self.driver.dim != self.fields.d:
            raise ValueError("driver dimension must match the number of fields")
        self.fields.require_order(2 * n_gamma + 1, "rough transport")
        self.terminal.require_order(n_gamma + 1, "rough transport terminal data")

    @property
    def horizon(self) -> float:
        return self.driver.horizon


def solve_transport(
    problem: TransportProblem,
    queries: Sequence[tuple[float, np.ndarray]],
    mesh: float,
    pmap: PMap | None = None,
) -> np.ndarray:
    """u(s, x) = g(X^{s,x}_T) for each query, by flow solves.

    Queries sharing a start time s share a partition and are stepped as one
    batch; queries at s = T return g(x) exactly.  The start-time groups are
    independent; the supplied parallel map (ordered) distributes them.
    """
    pmap = pmap or _serial_map
    driver = problem.driver
    n = problem.fields.n
    table = derive_fields(problem.fields, driver.level)
    queries = list(queries)
    groups: dict[float, list[int]] = {}
    for q, (s, _) in enumerate(queries):
        groups.setdefault(float(s), []).append(q)

    def run(group):
        s, members = group
        points = np.stack([np.atleast_1d(np.asarray(queries[q][1], dtype=float)) for q in members])
        xs, _ = as_batch(points, n, "query point")
        partition = solve_partition(driver, s, problem.horizon, mesh)
        if len(partition) > 1:
            xs = solve_rde(xs, problem.fields, driver, partition, table=table).terminal()
        return problem.terminal.values(xs)[:, 0]

    values = np.empty(len(queries))
    for (_, members), group_values in zip(groups.items(), pmap(run, list(groups.items()))):
        values[members] = group_values
    return values


class FlowSolutionOracle:
    """Derivative data of the flow-built transport solution.

    For a query (s, x) solves the flow jets from s to the horizon at x
    (composed-jet stepping on a knot-respecting partition) and chains the
    terminal data through them, yielding a point-local oracle for
    ∂^α u_s(x) up to the jet order.  A query may hold a batch of points
    (M, n): the points not yet cached share one batched flow-jet solve.
    Results are cached per (s, x).
    """

    def __init__(
        self,
        problem: TransportProblem,
        mesh: float,
        jet_order: int | None = None,
        solve_level: int | None = None,
    ):
        self.problem = problem
        self.mesh = float(mesh)
        n_gamma = problem.driver.hoelder_level
        self.jet_order = n_gamma if jet_order is None else int(jet_order)
        # The characteristics do not depend on the lift level: when the
        # driver carries its generating path, the flow may be solved with a
        # higher-level lift for accuracy (the verification thresholds still
        # come from the problem's γ).
        self.solve_driver = problem.driver
        if (
            solve_level is not None
            and solve_level > problem.driver.level
            and problem.driver.generator is not None
        ):
            from .roughpath import lift_pl

            self.solve_driver = lift_pl(
                problem.driver.generator, problem.driver.gamma, solve_level
            )
        self.table = derive_fields(problem.fields, self.solve_driver.level)
        self._cache: dict[tuple[float, bytes], JetFunction] = {}

    def __call__(self, s: float, x) -> JetFunction | list[JetFunction]:
        """The jet oracle of u_s at x (n,), or a list of them for x (M, n)."""
        problem = self.problem
        n = problem.fields.n
        xs, single = as_batch(x, n)
        keys = [(float(s), row.tobytes()) for row in xs]
        missing = {key: row for key, row in zip(keys, xs) if key not in self._cache}
        if missing:
            points = np.stack(list(missing.values()))
            partition = solve_partition(self.solve_driver, float(s), problem.horizon, self.mesh)
            # A one-point partition leaves the canonical jets (x, I, 0, …).
            jets = solve_flow_jets(
                points, problem.fields, self.solve_driver, partition, self.jet_order,
                method="composed", table=self.table,
            )
            alphas = [
                alpha
                for p in range(1, self.jet_order + 1)
                for alpha in itertools.combinations_with_replacement(range(1, n + 1), p)
            ]
            for m, (key, x_m) in enumerate(missing.items()):
                flow_partials = {alpha: jets.derivative(alpha)[m] for alpha in alphas}
                flow = JetFunction(x_m, jets.states[-1][m], flow_partials, self.jet_order)
                u_partials = {alpha: compose_partial(problem.terminal, flow, x_m, alpha) for alpha in alphas}
                self._cache[key] = JetFunction(
                    x_m, problem.terminal.value(flow.value(x_m)), u_partials, self.jet_order
                )
        out = [self._cache[key] for key in keys]
        return out[0] if single else out


def _gamma_values_from_oracle(
    table: DerivedFieldTable,
    fn: SmoothFunction,
    x: np.ndarray,
    f_values: dict[Word, np.ndarray],
    max_len: int,
) -> dict[Word, float] | dict[Word, np.ndarray]:
    """Γ_w fn(x) for all |w| <= max_len from the derivative data of fn.

    Γ_wfn(x) = Σ_k (1/k!) Σ m·D^k fn(x)(F_{u_1}(x), …); Γ_ε = fn(x).  For a
    point x (n,) the values are floats; for a batch x (M, n), with
    ``f_values`` from ``table.values_at`` on the same batch, they are (M,)
    arrays.
    """
    xs, single = as_batch(x, table.system.n)
    d = table.system.d
    words = words_up_to(d, max_len)
    values = np.stack([np.reshape(f_values[u], xs.shape) for u in words], axis=1)
    gamma = graded_expansion(lambda k: [fn.deriv_tensors(xs, k)], values, expansion_plan(d, 1, max_len), fn.n_out)
    out = np.concatenate([fn.values(xs)[:, :1], gamma[:, :, 0]], axis=1)
    return dict(zip(words, out[0].tolist())) if single else dict(zip(words, out.T))


class GradedReport(NamedTuple):
    """Per-word graded defect order checks plus run metadata."""

    checks: dict[Word, OrderCheck]
    meta: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta,
            "checks": {
                ",".join(map(str, w.letters)) or "ε": c.to_json_dict()
                for w, c in sorted(self.checks.items(), key=lambda kv: kv[0].sort_key())
            },
            "passed": self.passed,
        }


def _select_time_pairs(
    time_grid: np.ndarray, anchors_per_scale: int, min_pairs: int = 4
) -> list[tuple[float, list[tuple[int, int]]]]:
    """Dyadic-stride pairs on the time grid, subsampled to bound work.

    Scales with fewer than ``min_pairs`` disjoint pairs are outside the
    regime where an aggregate defect is statistically meaningful.
    """
    n = len(time_grid)
    out = []
    for stride, pairs in dyadic_pairs(n, min_pairs=min_pairs):
        if len(pairs) > anchors_per_scale:
            chosen = np.linspace(0, len(pairs) - 1, anchors_per_scale).round().astype(int)
            pairs = [pairs[i] for i in chosen]
        span = float(np.mean([time_grid[j] - time_grid[i] for i, j in pairs]))
        out.append((span, pairs))
    return out


def verify_transport(
    problem: TransportProblem,
    u_oracle: Callable[[float, np.ndarray], SmoothFunction],
    space_grid: Sequence[np.ndarray],
    time_grid: np.ndarray,
    words: Sequence[Word] | None = None,
    margin: float = SLOPE_MARGIN,
    anchors_per_scale: int = 4,
    pmap: PMap | None = None,
) -> GradedReport:
    """Graded-defect verification of a transport solution candidate.

    For every word w (default: all |w| <= N_γ) evaluates the defect of the
    backward graded expansion over dyadic time pairs, takes the max over
    the space grid per pair (the compact-uniformity reading) and the mean
    per scale, and regresses the order against (N_γ+1−|w|)γ.
    """
    pmap = pmap or _serial_map
    driver = problem.driver
    n_gamma = driver.hoelder_level
    time_grid = np.asarray(time_grid, dtype=float)
    space_grid = [np.atleast_1d(np.asarray(x, dtype=float)) for x in space_grid]
    points = np.stack(space_grid)
    table = derive_fields(problem.fields, max(driver.level, n_gamma))
    if words is None:
        words = [w for w in words_up_to(driver.dim, n_gamma)]
    scales = _select_time_pairs(time_grid, anchors_per_scale)
    needed_times = sorted({time_grid[i] for _, pairs in scales for pair in pairs for i in pair})
    coeffs = pair_increment_coeffs(driver, time_grid, scales)

    f_values = table.values_at(points)
    f_at = [{u: v[m] for u, v in f_values.items()} for m in range(len(points))]

    def gamma_data(t):
        # A flow-built oracle solves the whole grid in one batched pass.
        if isinstance(u_oracle, FlowSolutionOracle):
            fns = u_oracle(t, points)
        else:
            fns = [u_oracle(t, x) for x in space_grid]
        return [
            _gamma_values_from_oracle(table, fn, x, f, n_gamma)
            for fn, x, f in zip(fns, space_grid, f_at)
        ]

    gamma_at = dict(zip(needed_times, pmap(gamma_data, needed_times)))

    checks: dict[Word, OrderCheck] = {}
    for w in words:
        spans, defects = [], []
        for span, pairs in scales:
            vals = []
            for i, j in pairs:
                s, t = time_grid[i], time_grid[j]
                worst = 0.0
                for at_s, at_t in zip(gamma_at[s], gamma_at[t]):
                    lhs = at_s[w]
                    rhs = 0.0
                    for v, c in zip(words_up_to(driver.dim, n_gamma - len(w)), coeffs[(i, j)]):
                        if c != 0.0:
                            rhs += c * at_t[w + v]
                    worst = max(worst, abs(lhs - rhs))
                vals.append(worst)
            spans.append(span)
            defects.append(float(np.mean(vals)))
        checks[w] = check_order(
            name=f"transport[{','.join(map(str, w.letters)) or 'ε'}]",
            scales=spans,
            defects=defects,
            threshold=(n_gamma + 1 - len(w)) * driver.gamma,
            margin=margin,
        )
    meta = {
        "gamma": driver.gamma,
        "level": driver.level,
        "time_points": len(time_grid),
        "space_points": len(space_grid),
        "anchors_per_scale": anchors_per_scale,
    }
    return GradedReport(checks=checks, meta=meta)


# ---------------------------------------------------------------------------
# Continuity equation.
# ---------------------------------------------------------------------------

class ParticleMeasure:
    """A finite weighted particle cloud; the exact discretization for
    pushforward dynamics (weights are constant in time)."""

    def __init__(self, points, weights=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = (
            np.ones(points.shape[0])
            if weights is None
            else np.asarray(weights, dtype=float)
        )
        if weights.shape != (points.shape[0],):
            raise ValueError("one weight per particle required")
        if np.any(weights < 0) or not np.isfinite(weights).all():
            raise ValueError("weights must be finite and non-negative")
        if not np.isfinite(points).all():
            raise ValueError("particle positions must be finite")
        self.points = points
        self.weights = weights

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mass(self) -> float:
        return float(self.weights.sum())

    def pair(self, values: np.ndarray) -> float:
        """ρ(φ) for φ given by its values at the particle points."""
        return float(self.weights @ np.asarray(values, dtype=float))

    def pair_function(self, phi: SmoothFunction) -> float:
        return self.pair(phi.values(self.points)[:, 0])

    @classmethod
    def dirac(cls, x) -> "ParticleMeasure":
        return cls(np.atleast_2d(np.asarray(x, dtype=float)), np.array([1.0]))


@dataclass
class ParticleEvolution:
    """Particle trajectories sampled on a time grid; weights fixed."""

    times: np.ndarray
    positions: np.ndarray  # (len(times), M, n)
    weights: np.ndarray

    def measure_at(self, t: float) -> ParticleMeasure:
        j = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[j] - t) > 1e-9:
            raise ValueError(f"time {t} not on the evolution grid")
        return ParticleMeasure(self.positions[j], self.weights)

    def __call__(self, t: float) -> ParticleMeasure:
        return self.measure_at(t)


def push_measure(
    fields: VectorFieldSystem,
    driver: GeometricRoughPath,
    mu: ParticleMeasure,
    times,
    mesh: float,
) -> ParticleEvolution:
    """Push the particle cloud through the rough flow, sampling at times.

    The whole cloud is stepped as one (M, n) batch per cell against the
    shared increment; the sample times are merged into the solve partition
    so positions are read off exactly.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("evolution must start at time 0")
    table = derive_fields(fields, driver.level)
    end = float(times[-1])
    partition = solve_partition(driver, 0.0, end, mesh)
    partition = np.unique(np.concatenate([partition, times]))
    sample_idx = [int(np.argmin(np.abs(partition - t))) for t in times]
    states = solve_rde(mu.points, fields, driver, partition, table=table).states
    return ParticleEvolution(times=times, positions=states[sample_idx], weights=mu.weights.copy())


def solve_continuity(
    fields: VectorFieldSystem,
    driver: GeometricRoughPath,
    mu: ParticleMeasure,
    t: float,
    phis: Sequence[SmoothFunction],
    mesh: float,
) -> np.ndarray:
    """ρ_t(φ) = Σ_j w_j φ(X^{0,x_j}_t) for each test function φ."""
    evolution = push_measure(fields, driver, mu, np.array([0.0, t]) if t > 0 else np.array([0.0]), mesh)
    rho_t = evolution.measure_at(t)
    return np.array([rho_t.pair_function(phi) for phi in phis])


def verify_continuity(
    fields: VectorFieldSystem,
    driver: GeometricRoughPath,
    rho: Callable[[float], ParticleMeasure],
    phis: Sequence[SmoothFunction],
    time_grid: np.ndarray,
    words: Sequence[Word] | None = None,
    margin: float = SLOPE_MARGIN,
    anchors_per_scale: int = 6,
) -> GradedReport:
    """Graded-defect verification of a measure-valued solution candidate.

    Defects of the forward graded expansion, maximized over the supplied
    test family (the φ-uniformity reading), mean-aggregated per scale and
    regressed per word against (N_γ+1−|w|)γ.
    """
    n_gamma = driver.hoelder_level
    time_grid = np.asarray(time_grid, dtype=float)
    table = derive_fields(fields, max(driver.level, n_gamma))
    for phi in phis:
        phi.require_order(n_gamma + 1, "verify_continuity")
    if words is None:
        words = [w for w in words_up_to(driver.dim, n_gamma)]
    scales = _select_time_pairs(time_grid, anchors_per_scale)
    needed_times = sorted({time_grid[i] for _, pairs in scales for pair in pairs for i in pair})
    coeffs = pair_increment_coeffs(driver, time_grid, scales)

    # ρ_t(Γ_wφ) tables: evaluate Γ_wφ at all particle points once per time.
    pairings: dict[tuple[float, int], dict[Word, float]] = {}
    for t in needed_times:
        measure = rho(t)
        f_values = table.values_at(measure.points)
        for p_idx, phi in enumerate(phis):
            gv = _gamma_values_from_oracle(table, phi, measure.points, f_values, n_gamma)
            pairings[(t, p_idx)] = {w: float(measure.weights @ v) for w, v in gv.items()}

    checks: dict[Word, OrderCheck] = {}
    for w in words:
        spans, defects = [], []
        for span, pairs in scales:
            vals = []
            for i, j in pairs:
                s, t = time_grid[i], time_grid[j]
                worst = 0.0
                for p_idx in range(len(phis)):
                    lhs = pairings[(t, p_idx)][w]
                    rhs = 0.0
                    # Forward (along-the-flow) expansion: new letters act
                    # outermost, so the ⟨W, e_v⟩ coefficient is Γ_{vw}φ.
                    for v, c in zip(words_up_to(driver.dim, n_gamma - len(w)), coeffs[(i, j)]):
                        if c != 0.0:
                            rhs += c * pairings[(s, p_idx)][v + w]
                    worst = max(worst, abs(lhs - rhs))
                vals.append(worst)
            spans.append(span)
            defects.append(float(np.mean(vals)))
        checks[w] = check_order(
            name=f"continuity[{','.join(map(str, w.letters)) or 'ε'}]",
            scales=spans,
            defects=defects,
            threshold=(n_gamma + 1 - len(w)) * driver.gamma,
            margin=margin,
        )
    meta = {
        "gamma": driver.gamma,
        "level": driver.level,
        "time_points": len(time_grid),
        "test_functions": len(phis),
        "anchors_per_scale": anchors_per_scale,
    }
    return GradedReport(checks=checks, meta=meta)


class DualityReport(NamedTuple):
    times: np.ndarray
    alphas: np.ndarray
    max_drift: float

    def to_json_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "alphas": [float(a) for a in self.alphas],
            "max_drift": self.max_drift,
        }


def duality_check(
    problem: TransportProblem,
    mu: ParticleMeasure,
    grid,
    mesh: float,
    pmap: PMap | None = None,
) -> DualityReport:
    """Constancy of r ↦ ρ_r(u_r): the uniqueness mechanism as a test.

    Pushes the cloud forward, evaluates the backward solution at each
    particle and grid time, and reports the worst drift of the pairing
    from its initial value.
    """
    grid = np.asarray(grid, dtype=float)
    evolution = push_measure(problem.fields, problem.driver, mu, grid, mesh)
    queries = []
    for r in grid:
        measure = evolution.measure_at(r)
        queries.extend((float(r), measure.points[m]) for m in range(measure.size))
    values = solve_transport(problem, queries, mesh, pmap)
    values = values.reshape(len(grid), mu.size)
    alphas = values @ mu.weights
    return DualityReport(
        times=grid,
        alphas=alphas,
        max_drift=float(np.max(np.abs(alphas - alphas[0]))),
    )
