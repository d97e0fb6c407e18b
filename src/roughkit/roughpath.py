"""Geometric rough paths: piecewise-linear lifts, increments, diagnostics.

A geometric rough path is stored as group-valued basepoints W_t on a time
grid, with increments W_{st} = W_s^{-1} ⋆ W_t.  Piecewise-linear drivers are
lifted exactly (segment signatures are tensor exponentials, composed by the
group law, so the Chen relation holds by construction up to float error).
Off-grid times are evaluated exactly through the generating path when one
is attached, and by geodesic interpolation of the straddling increment
otherwise; both preserve the character property.

Also provides fractional Brownian driver sampling with exact covariance
(Cholesky, desk scale) and grid diagnostics for Hölder constants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import GroupTensor, TruncatedTensor, Word, _letter_index, _product, _wrap
from .algebra import convolution, group_inverse, tensor_exp, tensor_log, words_up_to
from .errors import NumericalFailure


def _check_size(what: str, count: float, unit: str) -> None:
    """Reject ``what`` (an option or file entry, and its value) if it needs more words, knots, cells or points
    than their cap; called before anything of that size is allocated or enumerated."""
    cap = {"words": 10**5, "knots": 2**12 + 1}.get(unit, 10**6)  # O(knots³) fBm: 4,097 take 1.6 s, 0.7 GB (2-CPU Xeon)
    if count > cap:
        raise ValueError(f"{what} needs {count:.3g} {unit}, more than the {cap:.4g} allowed")


def _word_count(d: int, level: int) -> float:
    """d^0 + … + d^level, the words of a tensor over d letters (inf past level 63, beyond any cap)."""
    return level + 1 if d < 2 else (d ** (level + 1) - 1) // (d - 1) if level < 64 else math.inf


def hoelder_level(gamma: float) -> int:
    """Truncation level N_γ = ⌊1/γ⌋ for Hölder exponent γ ∈ (0, 1].

    A small guard absorbs float division artifacts (e.g. 1/0.1).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"Hölder exponent must lie in (0, 1], got {gamma}")
    return int(math.floor(1.0 / gamma + 1e-9))


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """A continuous piecewise-linear path on a strictly increasing grid.

    times: shape (m+1,), with times[0] == 0; values: shape (m+1, d).
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("need at least two knots")
        if times[0] != 0.0:
            raise ValueError("path must start at time 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("knot times must be strictly increasing")
        if values.shape[0] != times.shape[0]:
            raise ValueError("times and values must have matching length")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("knots must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def value_at(self, t: float) -> np.ndarray:
        t = float(t)
        if not 0.0 <= t <= self.horizon + 1e-12:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        out = np.empty(self.dim)
        for j in range(self.dim):
            out[j] = np.interp(t, self.times, self.values[:, j])
        return out

    def to_csv(self) -> str:
        header = "t," + ",".join(f"x{j+1}" for j in range(self.dim))
        rows = np.column_stack([self.times, self.values]).tolist()
        return "\n".join([header] + [",".join(map(repr, r)) for r in rows]) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "PiecewiseLinearPath":
        _, rows = parse_csv(text, "t")
        return cls(times=rows[:, 0], values=rows[:, 1:])


def parse_csv(text: str, first: str) -> tuple[list[str], np.ndarray]:
    """The header and the (rows, columns) data of CSV text whose first column
    is ``first``: each data row has the header's width, all finite numbers."""
    cells = [ln.strip().split(",") for ln in text.split("\n") if ln.strip()]
    if not cells:
        raise ValueError("empty CSV")
    header = [h.strip() for h in cells.pop(0)]
    if header[0] != first:
        raise ValueError(f"expected first column {first!r}, got {header[0]!r}")
    for k, row in enumerate(cells, 1):
        if len(row) != len(header):
            raise ValueError(f"data row {k} has {len(row)} entries, the header {len(header)}")
    try:
        rows = np.array([[float(x) for x in row] for row in cells]).reshape(len(cells), len(header))
    except ValueError as e:
        raise ValueError(f"non-numeric CSV entry ({e})") from e
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if len(bad):
        raise ValueError(f"data row {bad[0] + 1} has a non-finite entry")
    return header, rows


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_csv(path: str, parse: Callable):
    """``parse`` of the text of a CSV file, its errors naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _segment_exp(delta: np.ndarray, level: int) -> GroupTensor:
    return tensor_exp(TruncatedTensor.from_vector(delta, level))


def _running_products(steps: TruncatedTensor) -> GroupTensor:
    """The identity, then s_1, s_1 ⋆ s_2, … for a (C, size) batch: (C+1, size), each
    product the one ``convolution`` forms, without wrapping its factors."""
    d, level = steps.dim, steps.level
    out = np.empty((len(steps.array) + 1, steps.array.shape[1]))
    out[0] = TruncatedTensor.unit(d, level).array
    for k, row in enumerate(steps.array):
        out[k + 1] = _product(out[k], row, d, level, False)
    return GroupTensor(_wrap(d, level, out))


def grid_index(times: np.ndarray, ts, tol: float) -> np.ndarray:
    """Index of the grid time within ``tol`` of each of ``ts`` (right first), else −1."""
    ts = np.asarray(ts, dtype=float)
    j = np.searchsorted(times, ts)
    hi, lo = np.minimum(j, len(times) - 1), np.maximum(j - 1, 0)
    return np.where(np.abs(times[hi] - ts) <= tol, hi, np.where(np.abs(times[lo] - ts) <= tol, lo, -1))


class GeometricRoughPath:
    """Group-valued path basepoints with exact increment arithmetic.

    The basepoints are stored once, as one read-only (K, size) array over
    the canonical word order; the constructor takes them as one batched
    group element or as a sequence of single ones.  Immutable after
    construction; calls are pure (internal caches memoize pure results).
    """

    def __init__(
        self,
        gamma: float,
        level: int,
        times: np.ndarray,
        basepoints: GroupTensor | list[GroupTensor],
        generator: PiecewiseLinearPath | None = None,
    ):
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"Hölder exponent must lie in (0, 1], got {gamma}")
        if level < hoelder_level(gamma):
            raise ValueError(
                f"truncation level {level} is below N_γ = {hoelder_level(gamma)}; "
                f"the level is only overridable upward"
            )
        times = np.asarray(times, dtype=float)
        if not isinstance(basepoints, GroupTensor):
            d = basepoints[0].dim if basepoints else 0
            if not basepoints or any((g.dim, g.level) != (d, level) for g in basepoints):
                raise ValueError("basepoints must share one alphabet size and the path's truncation level")
            basepoints = GroupTensor(TruncatedTensor.from_array(d, level, [g.tensor.array for g in basepoints]))
        stack = basepoints.tensor.array
        if basepoints.level != level or stack.ndim != 2 or len(times) != len(stack) or not len(times):
            raise ValueError("need one basepoint per time, at the path's truncation level")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("basepoint times must start at 0 and increase strictly")
        if not np.array_equal(stack[0], TruncatedTensor.unit(basepoints.dim, level).array):
            raise ValueError("the basepoint at time 0 must be the group identity")
        if generator is not None and not np.array_equal(generator.times, times):
            raise ValueError("a generating path must have the basepoint times as its knots")
        self.gamma = float(gamma)
        self.level = int(level)
        self.dim = basepoints.dim
        self.times = times
        self.generator = generator
        self._stack = stack

    @cached_property
    def basepoints(self) -> tuple[GroupTensor, ...]:
        """The basepoints as group elements viewing the rows of the array."""
        return tuple(GroupTensor(self._tensor(row)) for row in self._stack)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def hoelder_level(self) -> int:
        return hoelder_level(self.gamma)

    # -- evaluation -----------------------------------------------------------

    @cached_property
    def _segment_logs(self) -> np.ndarray:
        """log(W_{t_k}^{-1} ⋆ W_{t_{k+1}}) per knot interval."""
        inverses = self._tensor(self._inverse(self._stack[:-1]))
        return tensor_log(convolution(inverses, self._tensor(self._stack[1:]))).array

    def _tensor(self, array: np.ndarray) -> TruncatedTensor:
        return _wrap(self.dim, self.level, array)

    def _inverse(self, array: np.ndarray) -> np.ndarray:
        return group_inverse(GroupTensor(self._tensor(array)), tol=None).tensor.array

    def _between_knots(self, ts: np.ndarray) -> np.ndarray:
        """W_t at off-grid times, one (shape ()) or a batch (B,): the left
        knot's basepoint times the partial-segment exponential, through the
        generator when present (exact for piecewise-linear paths) or
        geodesically through the segment logs."""
        seg = np.searchsorted(self.times, ts) - 1
        left, right = self.times[seg], self.times[seg + 1]
        if self.generator is not None:
            # np.interp's formula on the knot interval, for all coordinates
            # at once; the generator's knots are the basepoint times.
            values = self.generator.values
            slope = (values[seg + 1] - values[seg]) / (right - left)[..., None]
            delta = (slope * (ts - left)[..., None] + values[seg]) - values[seg]
            partial = _segment_exp(delta, self.level).tensor
        else:
            theta = (ts - left) / (right - left)
            partial = tensor_exp(self._tensor(theta[..., None] * self._segment_logs[seg])).tensor
        return convolution(self._tensor(self._stack[seg]), partial).array

    def _basepoints_at(self, ts: np.ndarray) -> np.ndarray:
        """W_t for a batch of times (B,) as a (B, size) array: knots looked
        up at once, one ``_between_knots`` for all off-grid times."""
        outside = ~((ts >= -1e-12) & (ts <= self.horizon + 1e-12))
        if outside.any():
            raise ValueError(f"time {ts[outside][0]} outside [0, {self.horizon}]")
        knot = grid_index(self.times, ts, 1e-12)
        out = self._stack[knot]
        if (knot < 0).any():
            out[knot < 0] = self._between_knots(ts[knot < 0])
        return out

    def basepoint_at(self, t: float) -> GroupTensor:
        """W_t, exactly at knots; between knots via the generator when
        present (exact for piecewise-linear paths) or geodesically."""
        return GroupTensor(self._tensor(self._basepoints_at(np.array([float(t)]))[0]))

    def increment(self, s: float, t: float) -> GroupTensor:
        """The increment W_{st} = W_s^{-1} ⋆ W_t; identity when s == t.
        The batch of one of ``increments``."""
        return GroupTensor(self._tensor(self.increments([s], [t]).tensor.array[0]))

    def increments(self, lefts, rights) -> GroupTensor:
        """W_{s_c t_c} for every pair (s_c, t_c), as one (C, size) batch:
        one partial-segment exponential for all off-grid endpoints, then
        one inverse and one convolution.  Rows with s == t are the identity.
        """
        s, t = np.asarray(lefts, dtype=float), np.asarray(rights, dtype=float)
        if s.ndim != 1 or s.shape != t.shape:
            raise ValueError(f"need two 1-d time arrays of one length, got shapes {s.shape} and {t.shape}")
        if np.any(s > t):
            raise ValueError(f"increment requires s <= t, got s={s[s > t][0]} > t={t[s > t][0]}")
        points = self._basepoints_at(np.concatenate([s, t]))
        out = convolution(self._tensor(self._inverse(points[: len(s)])), self._tensor(points[len(s) :])).array
        unit = TruncatedTensor.unit(self.dim, self.level).array
        return GroupTensor(self._tensor(np.where((s == t)[:, None], unit, out)))

    # -- diagnostics ------------------------------------------------------------

    def holder_diagnostic(self, grid: np.ndarray) -> dict[Word, float]:
        """Grid supremum of |⟨W_{st}, e_w⟩| / |t−s|^{|w|γ} per word.

        Evaluates all pairs of the supplied grid (O(G²) convolutions, one
        batch per left point), so keep grids modest.  Words of length 0 are
        excluded by convention.
        """
        grid = np.asarray(grid, dtype=float)
        d, level = self.dim, self.level
        words = words_up_to(d, level)
        lengths = np.asarray([len(w) for w in words])
        stacked = self._basepoints_at(grid)
        worst = np.zeros(len(words))
        for i in range(len(grid)):
            later = (np.arange(len(grid)) > i) & (grid > grid[i])
            if later.any():
                left = self._tensor(self._inverse(stacked[i]))
                incs = convolution(left, TruncatedTensor.from_array(d, level, stacked[later])).array
                span = grid[later] - grid[i]
                worst = np.maximum(worst, np.max(np.abs(incs) / span[:, None] ** (lengths * self.gamma), axis=0))
        return {w: float(c) for w, c in zip(words, worst) if len(w) >= 1}

    def at_level(self, level: int) -> "GeometricRoughPath":
        """The path at a truncation level at least its own: ``lift_pl`` of
        the generator if attached, else geodesic (segment logs padded with
        zeros, one batched exponential, running products)."""
        if level < self.level:
            raise ValueError(f"cannot lower the truncation level from {self.level} to {level}")
        if level == self.level:
            return self
        if self.generator is not None:
            return lift_pl(self.generator, self.gamma, level)
        logs = self._tensor(self._segment_logs).at_level(level)
        return GeometricRoughPath(self.gamma, level, self.times, _running_products(tensor_exp(logs).tensor))

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeometricRoughPath":
        """Load into one (K, size) array by word rank.  Each basepoint needs
        the path's d and level, words over 1..d up to the level, finite
        numbers, and to be a character to 1e-9·max(1, ‖g‖∞)² (one batch)."""
        times = np.asarray(data["times"], dtype=float)
        if times.ndim != 1 or not np.isfinite(times).all():
            raise ValueError("rough-path times must be a list of finite numbers")
        level, entries = int(data["level"]), data["basepoints"]
        if not entries:
            raise ValueError("need at least one basepoint")
        d = int(entries[0]["d"])
        for k, entry in enumerate(entries):
            if (int(entry["d"]), int(entry["level"])) != (d, level):
                raise ValueError(f"basepoint {k} has d={entry['d']}, level={entry['level']}; want {d}, {level}")
        _check_size(f"level {level} over d = {d} letters", _word_count(d, level), "words")
        index = _letter_index(d, level)
        rows = np.repeat(np.arange(len(entries)), [len(entry["terms"]) for entry in entries])
        terms = [term for entry in entries for term in entry["terms"]]
        ranks = np.array([index.get(tuple(term["word"]), -1) for term in terms], dtype=np.intp)
        values = np.array([term["value"] for term in terms])
        if (ranks < 0).any():
            t = int(np.argmax(ranks < 0))
            raise ValueError(f"basepoint {rows[t]}: word {terms[t]['word']} is not over 1..{d} up to length {level}")
        if values.dtype.kind not in "iuf" or values.ndim != 1:
            raise ValueError("basepoint values must be numbers")
        stacked = np.zeros((len(entries), len(index)))
        stacked[rows, ranks] = values
        finite = np.isfinite(stacked).all(axis=1)
        if not finite.all():
            raise ValueError(f"basepoint {int(np.argmin(finite))} has a non-finite coefficient")
        from .shuffles import is_character

        path = cls(float(data["gamma"]), level, times, GroupTensor(_wrap(d, level, stacked)))
        violation = is_character(path._tensor(stacked)).violation
        scale = np.maximum(1.0, np.max(np.abs(stacked), axis=1))
        bad = np.flatnonzero(~(violation <= 1e-9 * scale**2))
        if len(bad):
            k = int(bad[0])
            raise ValueError(
                f"basepoint {k} is not a character (violation {violation[k]:.3e} "
                f"> {1e-9 * scale[k] ** 2:.3e})"
            )
        return path

    def to_json(self) -> str:
        """The rough-path JSON, written from the (K, size) array by word
        rank: one key prefix per word, the non-zero terms of each basepoint
        in canonical order, each value by ``repr`` (the bytes ``json.dumps``
        writes for the per-term dicts).  A non-finite coefficient raises
        ``NumericalFailure`` naming the first such knot."""
        finite = np.isfinite(self._stack).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            t = float(self.times[k])
            raise NumericalFailure(f"the lift at knot {k} (t = {t!r}) has a non-finite coefficient")
        prefixes = [f'{{"word": {list(w.letters)}, "value": ' for w in words_up_to(self.dim, self.level)]
        head = f'{{"d": {self.dim}, "level": {self.level}, "terms": ['
        rows, ranks = np.nonzero(self._stack)
        terms = [prefixes[i] + repr(v) + "}" for i, v in zip(ranks.tolist(), self._stack[rows, ranks].tolist())]
        ends = np.cumsum(np.bincount(rows, minlength=len(self._stack))).tolist()
        basepoints = [head + ", ".join(terms[a:b]) + "]}" for a, b in zip([0] + ends[:-1], ends)]
        return (
            f'{{"gamma": {self.gamma!r}, "level": {self.level}, "times": {json.dumps(self.times.tolist())}, '
            f'"basepoints": [{", ".join(basepoints)}]}}'
        )

    @classmethod
    def from_json(cls, text: str) -> "GeometricRoughPath":
        return cls.from_json_dict(json.loads(text))


def lift_pl(path: PiecewiseLinearPath, gamma: float, level: int | None = None) -> GeometricRoughPath:
    """Exact step-N lift of a piecewise-linear driver.

    Each segment contributes the tensor exponential of its increment (all
    formed in one batched call); the basepoints are running convolutions,
    so Chen's relation holds exactly up to float error.  ``level``
    defaults to N_γ and may be raised above it (never lowered below 1).
    """
    if level is None:
        level = hoelder_level(gamma)
    basepoints = _running_products(_segment_exp(np.diff(path.values, axis=0), level).tensor)
    return GeometricRoughPath(gamma=gamma, level=level, times=path.times, basepoints=basepoints, generator=path)


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
    _check_size(f"mesh {mesh!r} on [{s!r}, {t!r}]", (t - s) / mesh, "cells")
    n_cells = max(1, int(math.ceil((t - s) / mesh - 1e-12)))
    base = np.linspace(s, t, n_cells + 1)
    knots = driver.times[(driver.times > s + 1e-12) & (driver.times < t - 1e-12)]
    merged = np.sort(np.concatenate([base, knots]))
    # Collapse duplicates and near-duplicates from the merge.
    keep = np.concatenate([[True], np.diff(merged) > 1e-12])
    return merged[keep]


def sample_fbm(
    H: float,
    d: int,
    knots: int,
    seed: int,
    horizon: float = 1.0,
) -> PiecewiseLinearPath:
    """Sample d independent fractional Brownian components on a uniform grid.

    Uses a Cholesky factor of the exact fBm covariance
    E[B_s B_t] = (s^{2H} + t^{2H} − |t−s|^{2H}) / 2, so the law on the grid
    is exact.  O(knots³): desk scale only.  Deterministic given the seed.
    """
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {H}")
    if knots < 2:
        raise ValueError("need at least two knots")
    if d < 1:
        raise ValueError("need at least one component")
    times = np.linspace(0.0, horizon, knots)
    pos = times[1:]
    s, t = np.meshgrid(pos, pos, indexing="ij")
    cov = 0.5 * (s ** (2 * H) + t ** (2 * H) - np.abs(t - s) ** (2 * H))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(
            f"sample_fbm: covariance Cholesky failed for H={H}, knots={knots} "
            f"(matrix not numerically positive definite)"
        ) from e
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((knots - 1, d))
    values = np.vstack([np.zeros((1, d)), chol @ z])
    return PiecewiseLinearPath(times=times, values=values)
