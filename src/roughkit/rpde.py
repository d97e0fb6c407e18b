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
defects on supplied grids ("uniformly on compacts" is realized as a max over
the space grid, "uniformly in φ" as a max over the supplied test family) and
regress the orders scale by scale.  Continuity's defects are the controlled
remainders of r ↦ ρ_r(Γ_wφ) (``controlled._remainder_checks``); transport's
run backward (letters appended, read at t), so they keep a tail of their own
rather than a branch in the shared check.  Spatial derivatives of the
flow-built solution come from flow jets chained into the terminal data by
the higher-order chain rule, never from finite differences.

The duality between the two equations — r ↦ ρ_r(u_r) is constant — is
implemented as a cross-module integration check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import Word, words_up_to
from .controlled import ControlledPath, _remainder_checks
from .errors import NumericalFailure
from .functions import JetFunction, SmoothFunction, graded_expansion
from .jets import jet_compose, terminal_flow_jets
from .rde import (
    DerivedFieldTable,
    VectorFieldSystem,
    WordArrays,
    _davie_steps,
    as_batch,
    derive_fields,
    solve_rde,
)
from .regression import SLOPE_MARGIN, OrderCheck, dyadic_pairs, order_checks, pair_arrays
from .roughpath import GeometricRoughPath, solve_partition
from .shuffles import expansion_plan, graded_shift


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
) -> np.ndarray:
    """u(s, x) = g(X^{s,x}_T) for each query, by flow solves.

    All queries are stepped as one batch (``rde._davie_steps``), each on its
    start's partition, with one table evaluation per step; queries at s = T
    return g(x) exactly.  A start outside [0, T] or a blow-up names the
    query (and the cell)."""
    driver, horizon, queries = problem.driver, problem.horizon, list(queries)
    if not queries:
        return np.empty(0)
    starts = [float(s) for s, _ in queries]
    outside = [q for q, s in enumerate(starts) if not 0.0 <= s <= horizon]
    if outside:
        raise ValueError(f"query {outside[0]}: start s={starts[outside[0]]!r} is outside [0, {horizon!r}]")
    xs, _ = as_batch(np.stack([np.atleast_1d(x) for _, x in queries]), problem.fields.n, "query point")
    distinct, owners = np.unique(starts, return_inverse=True)
    partitions = [solve_partition(driver, s, horizon, mesh) for s in distinct]
    table = derive_fields(problem.fields, driver.level)

    def blew_up(q: int, c: int) -> str:
        a, b = partitions[owners[q]][c : c + 2]
        return f"solve_transport: query {q} from s={starts[q]:.6g} blew up on cell [{a:.6g}, {b:.6g}]"

    ends = _davie_steps(driver, partitions, owners, xs,
                        lambda rows, g: np.einsum("aw,aw...->a...", g, table.values_at(rows).array.swapaxes(0, 1)),
                        blew_up)
    return problem.terminal.values(ends)[:, 0]


class FlowSolutionOracle:
    """Derivative data of the flow-built transport solution.

    For start times s and points x solves the flow jets from s to the
    horizon (composed-jet stepping on a knot-respecting partition per s, all
    starts in one batch) and chains the terminal data through them, yielding
    ∂^α u_s(x) up to the jet order.  ``jets`` returns the arrays for a grid
    of starts and points; a call (s, x) returns point-local oracles for one
    start, cached per (s, x), with the points not yet cached solved in one
    batch.
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
        # The flow may be solved with a higher-level lift for accuracy; the
        # verification thresholds still come from the problem's γ.
        self.solve_driver = problem.driver if solve_level is None else problem.driver.at_level(solve_level)
        self.table = derive_fields(problem.fields, self.solve_driver.level)
        self._cache: dict[tuple[float, bytes], JetFunction] = {}

    def jets(self, times: Sequence[float], points) -> list[np.ndarray]:
        """Jets of u_s at every point (M, n) for every start time s:
        blocks[p] of shape (S, M) + (n,)*p for p = 0..jet_order, block 0
        holding u itself.  One multi-start flow-jet solve, then one chain
        rule through the terminal data for all S·M endpoints."""
        problem = self.problem
        xs, _ = as_batch(points, problem.fields.n, "query point")
        partitions = [solve_partition(self.solve_driver, float(s), problem.horizon, self.mesh) for s in times]
        flow = terminal_flow_jets(xs, problem.fields, self.solve_driver, partitions, self.jet_order, self.table)
        rows = [b.reshape((-1,) + b.shape[2:]) for b in flow]
        outer = problem.terminal.deriv_tensors(rows[0], range(self.jet_order + 1))
        return [b[:, 0].reshape((len(partitions), len(xs)) + b.shape[2:]) for b in jet_compose(outer, rows)]

    def __call__(self, s: float, x) -> JetFunction | list[JetFunction]:
        """The jet oracle of u_s at x (n,), or a list of them for x (M, n)."""
        n = self.problem.fields.n
        xs, single = as_batch(x, n)
        keys = [(float(s), row.tobytes()) for row in xs]
        missing = {key: row for key, row in zip(keys, xs) if key not in self._cache}
        if missing:
            blocks = self.jets([s], np.stack(list(missing.values())))
            alphas = [
                alpha
                for p in range(1, self.jet_order + 1)
                for alpha in itertools.combinations_with_replacement(range(1, n + 1), p)
            ]
            for m, (key, x_m) in enumerate(missing.items()):
                partials = {alpha: blocks[len(alpha)][0, m][tuple(a - 1 for a in alpha)] for alpha in alphas}
                self._cache[key] = JetFunction(x_m, blocks[0][0, m], partials, self.jet_order)
        out = [self._cache[key] for key in keys]
        return out[0] if single else out


def _gamma_rows(
    table: DerivedFieldTable, tensors: Callable[[int], list[np.ndarray]], f_values: np.ndarray, max_len: int
) -> np.ndarray:
    """Γ_w fn at M points for all |w| <= max_len and C scalar channels,
    shape (M, words, C), from the channels' derivative tensors
    ``tensors(k)``, a list of (M, C_j) + (n,)*k arrays with k = 0 the
    values, and the table values f_values (M, words, n).

    Γ_wfn(x) = Σ_k (1/k!) Σ m·D^k fn(x)(F_{u_1}(x), …); Γ_ε = fn(x).
    """
    values = np.concatenate(tensors(0), axis=1)
    gamma = graded_expansion(tensors, f_values, expansion_plan(table.system.d, 1, max_len), values.shape[1])
    return np.concatenate([values[:, None], gamma], axis=1)


def _gamma_values_from_oracle(
    table: DerivedFieldTable,
    fn: SmoothFunction,
    x: np.ndarray,
    f_values: WordArrays,
    max_len: int,
) -> dict[Word, float] | dict[Word, np.ndarray]:
    """Γ_w fn(x) for all |w| <= max_len from the derivative data of fn.

    For a point x (n,) the values are floats; for a batch x (M, n), with
    ``f_values`` from ``table.values_at`` on the same batch, they are (M,)
    arrays.
    """
    xs, single = as_batch(x, table.system.n)
    words = words_up_to(table.system.d, max_len)
    values = f_values.array[: len(words)].reshape((len(words),) + xs.shape).swapaxes(0, 1)
    out = _gamma_rows(table, lambda k: [fn.deriv_tensors(xs, k)], values, max_len)[:, :, 0]
    return dict(zip(words, out[0].tolist())) if single else dict(zip(words, out.T))


class GradedReport(NamedTuple):
    """Per-word graded defect order checks."""

    checks: dict[Word, OrderCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


# Scales with fewer disjoint pairs are outside the regime where an aggregate
# defect is statistically meaningful.
MIN_SCALE_PAIRS = 4


def _select_time_pairs(time_grid: np.ndarray, anchors_per_scale: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dyadic-stride pairs on the time grid with at least ``MIN_SCALE_PAIRS`` per scale, subsampled to bound
    work, as index arrays (i, j) and each pair's scale id; both verifiers' one check that the grid increases."""
    if anchors_per_scale < 1:
        raise ValueError(f"need at least one time pair per scale, got {anchors_per_scale}")
    bad = np.flatnonzero(~(np.diff(time_grid) > 0)) + 1
    if len(bad):
        raise ValueError(f"time grid must increase strictly, but index {bad[0]} ({time_grid[bad[0]]:.6g}) does not")
    scales = []
    for stride, pairs in dyadic_pairs(len(time_grid), min_pairs=MIN_SCALE_PAIRS):
        if len(pairs) > anchors_per_scale:
            chosen = np.linspace(0, len(pairs) - 1, anchors_per_scale).round().astype(int)
            pairs = [pairs[i] for i in chosen]
        scales.append(pairs)
    if not scales:
        raise ValueError(f"a time grid of {len(time_grid)} points has no scale of {MIN_SCALE_PAIRS} disjoint pairs")
    return pair_arrays(scales)


def verify_transport(
    problem: TransportProblem,
    u_oracle: Callable[[float, np.ndarray], SmoothFunction],
    space_grid: Sequence[np.ndarray],
    time_grid: np.ndarray,
    margin: float = SLOPE_MARGIN,
    anchors_per_scale: int = 4,
) -> GradedReport:
    """Graded-defect verification of a transport solution candidate.

    For every word w with |w| <= N_γ evaluates the defect of the backward
    graded expansion over dyadic time pairs, takes the max over the space
    grid per pair (the compact-uniformity reading) and the mean per scale,
    and regresses the order against (N_γ+1−|w|)γ.  A
    ``FlowSolutionOracle`` answers every needed (time, point) row from one
    batched solve; any other candidate is called per (t, x).
    """
    driver = problem.driver
    n_gamma = driver.hoelder_level
    time_grid = np.asarray(time_grid, dtype=float)
    points = np.stack([np.atleast_1d(np.asarray(x, dtype=float)) for x in space_grid])
    table = derive_fields(problem.fields, driver.level)
    words = words_up_to(driver.dim, n_gamma)
    i, j, scale_ids = _select_time_pairs(time_grid, anchors_per_scale)
    needed, rows = np.unique(np.concatenate([i, j]), return_inverse=True)
    needed_times = time_grid[needed].tolist()

    # D^k u at every needed (time, point) row, then all Γ_w u in one kernel call.
    if isinstance(u_oracle, FlowSolutionOracle):
        if u_oracle.jet_order < n_gamma:
            raise ValueError(f"oracle jet order {u_oracle.jet_order} is below N_γ = {n_gamma}")
        u = [b.reshape((len(needed) * len(points), 1) + b.shape[2:]) for b in u_oracle.jets(needed_times, points)]
    else:
        fns = [(u_oracle(t, x), x[None]) for t in needed_times for x in points]
        u = [np.concatenate(orders) for orders in zip(*(fn.deriv_tensors(x, range(n_gamma + 1)) for fn, x in fns))]
    f = np.tile(table.values_at(points).array[: len(words)].swapaxes(0, 1), (len(needed), 1, 1))
    gamma = _gamma_rows(table, lambda k: [u[k]], f, n_gamma).reshape(len(needed), len(points), -1).swapaxes(1, 2)

    # Backward expansion: Γ_w u_s ≈ Σ_v ⟨W_{st}, e_v⟩ Γ_{wv} u_t, read at t.
    incs = driver.increments(time_grid[i], time_grid[j]).tensor.array
    rhs = graded_shift(incs, gamma[rows[len(i) :]], driver.dim, n_gamma, prepend=False)
    defects = np.abs(gamma[rows[: len(i)]] - rhs).max(axis=2)
    thresholds = [(n_gamma + 1 - len(w)) * driver.gamma for w in words]
    checks = order_checks("transport", words, defects, time_grid[j] - time_grid[i], scale_ids, thresholds, margin)
    return GradedReport(checks)


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
    partition = np.sort(np.concatenate([partition, times]))
    partition = partition[np.concatenate([[True], partition[1:] != partition[:-1]])]
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
    margin: float = SLOPE_MARGIN,
    anchors_per_scale: int = 6,
) -> GradedReport:
    """Graded-defect verification of a measure-valued solution candidate.

    Defects of the forward graded expansion for every word w with
    |w| <= N_γ, maximized over the supplied test family (the φ-uniformity
    reading), mean-aggregated per scale and regressed per word against
    (N_γ+1−|w|)γ.
    """
    if not phis:
        raise ValueError("need at least one test function")
    if driver.dim != fields.d:
        raise ValueError("driver dimension must match the number of fields")
    n_gamma = driver.hoelder_level
    time_grid = np.asarray(time_grid, dtype=float)
    table = derive_fields(fields, driver.level)
    for phi in phis:
        phi.require_order(n_gamma + 1, "verify_continuity")
    words = words_up_to(driver.dim, n_gamma)
    i, j, scale_ids = _select_time_pairs(time_grid, anchors_per_scale)
    needed, rows = np.unique(np.concatenate([i, j]), return_inverse=True)

    # ρ_t(Γ_wφ) (times, words, φ): every Γ_wφ at the particles of all
    # needed times in one batch, then summed per time with the weights.
    measures = [rho(t) for t in time_grid[needed].tolist()]
    points = np.concatenate([m.points for m in measures])
    firsts = np.cumsum([0] + [m.size for m in measures[:-1]])
    with np.errstate(over="ignore", invalid="ignore"):
        f = table.values_at(points).array[: len(words)].swapaxes(0, 1)
        gamma = _gamma_rows(table, lambda k: [phi.deriv_tensors(points, k) for phi in phis], f, n_gamma)
    # Overflow leaves an infinity; NaN from a NaN-valued test function fails the checks instead.
    bad = np.flatnonzero(np.isinf(f).any(axis=(1, 2)) | np.isinf(gamma).any(axis=(1, 2)))
    if len(bad):
        k = int(np.searchsorted(firsts, bad[0], side="right")) - 1
        raise NumericalFailure(
            f"verify_continuity: Γ overflows at t={time_grid[needed[k]]:.6g}, particle {bad[0] - firsts[k]}"
        )
    weighted = np.concatenate([m.weights for m in measures])[:, None, None] * gamma
    pairings = np.add.reduceat(weighted, firsts, axis=0)

    # Forward expansion: new letters act outermost, so ρ_t(Γ_wφ) ≈ Σ_v ⟨W_{st}, e_v⟩ ρ_s(Γ_{vw}φ), read at
    # s: r ↦ ρ_r(Γ_wφ) is controlled of order N_γ+1, and the defects are its remainders.
    lift = ControlledPath(driver, n_gamma + 1, len(phis), time_grid[needed], pairings)
    return GradedReport(_remainder_checks("continuity", lift, rows[: len(i)], rows[len(i) :], scale_ids, margin))


class DualityReport(NamedTuple):
    times: np.ndarray
    alphas: np.ndarray
    max_drift: float


def duality_check(
    problem: TransportProblem,
    mu: ParticleMeasure,
    grid,
    mesh: float,
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
    values = solve_transport(problem, queries, mesh)
    values = values.reshape(len(grid), mu.size)
    alphas = values @ mu.weights
    return DualityReport(
        times=grid,
        alphas=alphas,
        max_drift=float(np.max(np.abs(alphas - alphas[0]))),
    )
