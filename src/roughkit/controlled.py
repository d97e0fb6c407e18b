"""Controlled rough paths: remainders, composition, rough integration.

A controlled path stores, per sample time and per word of length < N, a
vector of Gubinelli coefficients attached to a reference rough path.  The
word-indexed remainders

    R_w(s,t) = ⟨e_w*, X_t⟩ − ⟨W_{st} ⋆ e_w*, X_s⟩
             = ⟨e_w*, X_t⟩ − Σ_{|v| ≤ N−1−|w|} ⟨e_{vw}*, X_s⟩⟨W_{st}, e_v⟩

must vanish at order (N−|w|)γ.  ``_remainder_checks`` certifies this by
log-log order regression on grids, here and in every forward graded check,
whose solutions are controlled paths: φ(X) in ``rde.ito_check`` and
r ↦ ρ_r(Γ_wφ) in ``rpde.verify_continuity``.  (Note that the dual
convolution prepends the increment's word: e_v* ⋆ e_w* = e_{vw}*.)
Composition with a smooth function and the compensated-Riemann-sum rough
integral are implemented exactly in the graded forms used throughout: sums
over deshuffle tuples are weighted by their shuffle multiplicities.

Controlled paths are immutable; composition and integration are pure.
Interval summation is sequential (hence trivially reproducible for a fixed
partition).
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .algebra import EMPTY_WORD, Word, _letter_index, words_up_to
from .functions import SmoothFunction, graded_expansion
from .regression import SLOPE_MARGIN, OrderCheck, dyadic_pairs, order_checks, pair_arrays
from .roughpath import GeometricRoughPath, grid_index
from .shuffles import expansion_plan, graded_shift, shift_table


class ControlledPath:
    """Sampled path of graded coefficient vectors above a rough path.

    ``stacked`` is one read-only (len(times), W, width) array over the W
    words of length <= order−1 in canonical order, given as such or as a
    word → (len(times), width) mapping whose absent words are zero.
    ``coeffs`` maps the words whose slice is not identically zero to their
    views, in canonical order; the primal trace is the empty-word slice.
    """

    def __init__(
        self,
        reference: GeometricRoughPath,
        order: int,
        width: int,
        times: np.ndarray,
        coeffs: np.ndarray | Mapping[Word, np.ndarray],
    ):
        n_gamma, d = reference.hoelder_level, reference.dim
        if not 1 <= order <= n_gamma + 1:
            raise ValueError(
                f"controlled order must satisfy 1 <= N <= N_γ+1 = {n_gamma + 1}, got {order}"
            )
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) < 1:
            raise ValueError("need a non-empty time grid")
        if np.any(np.diff(times) <= 0):
            raise ValueError("controlled-path times must increase strictly")
        shape = (len(times), len(words_up_to(d, order - 1)), width)
        if isinstance(coeffs, Mapping):
            stacked, index = np.zeros(shape), _letter_index(d, order - 1)
            for w, arr in coeffs.items():
                if len(w) > order - 1:
                    raise ValueError(f"coefficient word {w} exceeds order {order} - 1")
                if w.max_letter > d:
                    raise ValueError(f"coefficient word {w} has a letter beyond d = {d}")
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 1:
                    arr = arr[:, None]
                if arr.shape != (len(times), width):
                    raise ValueError(
                        f"coefficient array for {w} has shape {arr.shape}, "
                        f"expected {(len(times), width)}"
                    )
                stacked[:, index[w.letters]] = arr
        else:
            stacked = np.asarray(coeffs, dtype=float).view()
            if stacked.shape != shape:
                raise ValueError(f"coefficient array has shape {stacked.shape}, expected {shape}")
        stacked.setflags(write=False)
        self.reference = reference
        self.order = int(order)
        self.width = int(width)
        self.times = times
        self.stacked = stacked

    @property
    def dim(self) -> int:
        return self.reference.dim

    @property
    def primal(self) -> np.ndarray:
        return self.stacked[:, 0]

    @cached_property
    def coeffs(self) -> dict[Word, np.ndarray]:
        words = words_up_to(self.dim, self.order - 1)
        return {words[i]: self.stacked[:, i] for i in np.flatnonzero(self.stacked.any(axis=(0, 2)))}

    def coeff(self, w: Word) -> np.ndarray:
        i = _letter_index(self.dim, self.order - 1).get(w.letters)
        return np.zeros((len(self.times), self.width)) if i is None else self.stacked[:, i]

    def index_of(self, t):
        """Grid index of a time, or an index array for an array of times."""
        idx = grid_index(self.times, t, 1e-9)
        if (idx < 0).any():
            raise ValueError(f"time {np.asarray(t)[idx < 0].flat[0]} is not on the controlled path grid")
        return int(idx) if idx.ndim == 0 else idx

    def truncate(self, order: int) -> "ControlledPath":
        """Forget coefficients of order >= the new (smaller) order."""
        if order > self.order:
            raise ValueError("truncate can only lower the order")
        kept = self.stacked[:, : len(words_up_to(self.dim, order - 1))]
        return ControlledPath(self.reference, order, self.width, self.times, kept)

    def restrict(self, indices: np.ndarray) -> "ControlledPath":
        return ControlledPath(self.reference, self.order, self.width, self.times[indices], self.stacked[indices])

    # -- linear structure (same reference and grid) ------------------------------

    def __add__(self, other: "ControlledPath") -> "ControlledPath":
        if self.reference is not other.reference or self.order != other.order:
            raise ValueError("can only add controlled paths over the same reference and order")
        if not np.array_equal(self.times, other.times):
            raise ValueError("controlled-path grids differ")
        return ControlledPath(self.reference, self.order, self.width, self.times, self.stacked + other.stacked)

    def __mul__(self, scalar: float) -> "ControlledPath":
        return ControlledPath(self.reference, self.order, self.width, self.times, float(scalar) * self.stacked)

    __rmul__ = __mul__

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "width": self.width,
            "times": [float(t) for t in self.times],
            "coeffs": [
                {"word": list(w.letters), "values": [[float(v) for v in row] for row in arr]}
                for w, arr in self.coeffs.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict, reference: GeometricRoughPath) -> "ControlledPath":
        coeffs = {
            Word(entry["word"]): np.asarray(entry["values"], dtype=float)
            for entry in data["coeffs"]
        }
        return cls(
            reference,
            int(data["order"]),
            int(data["width"]),
            np.asarray(data["times"], dtype=float),
            coeffs,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def constant_controlled(
    reference: GeometricRoughPath, value, times, order: int | None = None
) -> ControlledPath:
    """The constant controlled path (primal ≡ value, all other words 0)."""
    value = np.atleast_1d(np.asarray(value, dtype=float))
    times = np.asarray(times, dtype=float)
    order = reference.hoelder_level if order is None else order
    arr = np.tile(value, (len(times), 1))
    return ControlledPath(reference, order, len(value), times, {EMPTY_WORD: arr})


def coordinate_lift(reference: GeometricRoughPath, letter: int, order: int | None = None) -> ControlledPath:
    """The tautological controlled path above the driver component W^letter.

    Primal trace ⟨W_{0t}, e_letter⟩, unit coefficient at the word (letter),
    zero elsewhere.
    """
    if not 1 <= letter <= reference.dim:
        raise ValueError(f"letter must lie in 1..{reference.dim}, got {letter}")
    order = reference.hoelder_level if order is None else order
    times = reference.times
    coeffs = {EMPTY_WORD: reference.increments(np.zeros(len(times)), times).tensor.array[:, [letter]]}
    if order >= 2:
        coeffs[Word((letter,))] = np.ones((len(times), 1))
    return ControlledPath(reference, order, 1, times, coeffs)


# ---------------------------------------------------------------------------
# Remainders, seminorms and order checks.
# ---------------------------------------------------------------------------

def _remainders(X: ControlledPath, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """R_w(t_i, t_j) for index arrays i and j, shape (pairs, words, width)
    over the words of length <= order−1 in canonical order.

    The compensation is ⟨W_{st} ⋆ e_w*, X_s⟩ = Σ_v ⟨e_{vw}*, X_s⟩⟨W_{st}, e_v⟩:
    the increment's word is *prepended* (e_v* ⋆ e_w* = e_{vw}*), which is
    what solution lifts and composed lifts satisfy; the appended variant
    differs once d >= 2 and fails its order.
    """
    incs = X.reference.increments(X.times[i], X.times[j]).tensor.array
    return X.stacked[j] - graded_shift(incs, X.stacked[i], X.dim, X.order - 1, prepend=True)


def _remainder_checks(prefix: str, X: ControlledPath, i, j, scale_ids, margin: float) -> dict[Word, OrderCheck]:
    """``order_checks`` named ``prefix[w]`` of the largest |R_w(t_i, t_j)| over the width against (order−|w|)γ,
    for index arrays i and j grouped by ``scale_ids``: every forward graded check of the library."""
    words = words_up_to(X.dim, X.order - 1)
    defects = np.abs(_remainders(X, i, j)).max(axis=2)
    thresholds = [(X.order - len(w)) * X.reference.gamma for w in words]
    return order_checks(prefix, words, defects, X.times[j] - X.times[i], scale_ids, thresholds, margin)


class ControlledNorms(NamedTuple):
    seminorm: float
    norm: float
    per_word: dict[Word, float]


def controlled_norms(X: ControlledPath) -> ControlledNorms:
    """Grid version of the controlled seminorm and Banach norm.

    The seminorm sums, over words of length < N, the grid supremum of
    |R_w(s,t)| / |t−s|^{(N−|w|)γ}; the norm adds the largest initial
    coefficient.  All s < t pairs of the grid are used: O(G²) increments,
    taken one left point at a time so that memory stays O(G).
    """
    if len(X.times) < 2:
        raise ValueError("controlled_norms needs at least two grid points")
    words = words_up_to(X.dim, X.order - 1)
    exponents = np.array([(X.order - len(w)) * X.reference.gamma for w in words])
    sups = np.zeros(len(words))
    for i in range(len(X.times) - 1):
        j = np.arange(i + 1, len(X.times))
        rem = np.abs(_remainders(X, np.full(len(j), i), j)).max(axis=2)
        sups = np.maximum(sups, (rem / (X.times[j] - X.times[i])[:, None] ** exponents).max(axis=0))
    seminorm = float(sups.sum())
    initial = float(np.abs(X.stacked[0]).max())
    return ControlledNorms(seminorm=seminorm, norm=initial + seminorm, per_word=dict(zip(words, sups.tolist())))


def check_controlled(
    X: ControlledPath,
    margin: float = SLOPE_MARGIN,
    max_scales: int | None = None,
    min_pairs: int = 8,
) -> dict[Word, OrderCheck]:
    """Per-word remainder order estimates by dyadic log-log regression.

    For each word of length <= N−1, aggregates |R_w(s,t)| over disjoint
    pairs at each dyadic stride (scale-wise mean: the graded estimates are
    uniform in (s,t) and the mean follows the same power law with a stable
    constant), then regresses against the span.  Passes iff the slope is at
    least (N−|w|)γ − margin; identically vanishing remainders report slope
    +inf and pass, and a grid too short to resolve at least two usable
    scales cannot certify and fails.
    """
    scales = dyadic_pairs(len(X.times), max_scales=max_scales, min_pairs=min_pairs)
    return _remainder_checks("remainder", X, *pair_arrays([pairs for _, pairs in scales]), margin)


# ---------------------------------------------------------------------------
# Composition with a smooth function.
# ---------------------------------------------------------------------------

def compose(phi: SmoothFunction, X: ControlledPath) -> ControlledPath:
    """Controlled lift of φ(X): graded coefficients from the derivative
    oracle of φ and the deshuffle combinatorics.

    ⟨e_w*, Φ(X)_t⟩ = Σ_k (1/k!) Σ_{(u_1..u_k)} m·D^kφ(X_t)(⟨e_{u_1}*,X⟩, …)
    with m the shuffle multiplicity of the tuple.  Requires φ to carry
    derivatives up to the controlled order.
    """
    if phi.n_in != X.width:
        raise ValueError(f"φ expects {phi.n_in} inputs, controlled path has width {X.width}")
    phi.require_order(X.order, "compose")
    xs = X.primal
    plan = expansion_plan(X.dim, 1, X.order - 1)
    present = X.stacked.any(axis=(0, 2))
    block = graded_expansion(lambda k: [phi.deriv_tensors(xs, k)], X.stacked, plan, phi.n_out, present)
    stacked = np.concatenate([phi.values(xs)[:, None], block], axis=1)
    return ControlledPath(X.reference, X.order, phi.n_out, X.times, stacked)


# ---------------------------------------------------------------------------
# Rough integration.
# ---------------------------------------------------------------------------

class RoughIntegralResult(NamedTuple):
    values: np.ndarray  # (len(partition), width): running integral, 0 at start
    lift: ControlledPath  # controlled lift of the integral, order N_γ+1


def rough_integral(X: ControlledPath, letter: int, partition) -> RoughIntegralResult:
    """Compensated-Riemann-sum rough integral of X against W^letter.

    Per cell [a, b] of the partition, adds
    Σ_{|w| <= N_γ−1} ⟨e_w*, X_a⟩⟨W_{ab}, e_{w·letter}⟩, for all cells from
    one batch of increments and one contraction; the limit exists at
    controlled order N_γ, which is required of X.  The returned lift stores
    the integral as primal trace and shifts X's coefficients onto words
    ending in ``letter``; it is controlled of order N_γ+1.
    """
    reference = X.reference
    n_gamma = reference.hoelder_level
    if not 1 <= letter <= reference.dim:
        raise ValueError(f"letter must lie in 1..{reference.dim}, got {letter}")
    if X.order < n_gamma:
        raise ValueError(
            f"rough integration needs controlled order >= N_γ = {n_gamma}, got {X.order}"
        )
    partition = np.asarray(partition, dtype=float)
    if partition.ndim != 1 or len(partition) < 2:
        raise ValueError("partition must contain at least two times")
    idx = X.index_of(partition)
    # ⟨W_{ab}, e_{w·letter}⟩ for every cell and word, against ⟨e_w*, X_a⟩.
    words = words_up_to(reference.dim, n_gamma - 1)
    rows = shift_table(reference.dim, n_gamma, False)[: len(words), letter]
    incs = reference.increments(partition[:-1], partition[1:]).tensor.array
    coeffs = X.stacked[idx, : len(words)]
    values = np.zeros((len(partition), X.width))
    np.cumsum(np.einsum("cw,cwk->ck", incs[:, rows], coeffs[:-1]), axis=0, out=values[1:])
    stacked = np.zeros((len(partition), len(words_up_to(reference.dim, n_gamma)), X.width))
    stacked[:, 0], stacked[:, rows] = values, coeffs
    lift = ControlledPath(reference, n_gamma + 1, X.width, partition, stacked)
    return RoughIntegralResult(values=values, lift=lift)
