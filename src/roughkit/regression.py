"""Log-log order estimation for graded Hölder-type defect checks.

Every "defect ≍ |t−s|^θ" claim in the library is operationalized the same
way: collect a defect size per dyadic scale, regress log(defect) against
log(scale), and compare the slope against a threshold with a fixed margin.
Defects at floating-point noise level are excluded; a check whose defects
are all noise counts as exact (slope +inf).  A non-finite defect or scale
certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: Defects below this are considered floating-point noise, not signal.
NOISE_FLOOR = 1e-13

#: Default slope margin for order checks.
SLOPE_MARGIN = 0.15


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(defect) vs log(scale)."""

    slope: float
    n_points: int
    exact: bool = False

    @classmethod
    def from_samples(cls, scales, defects, noise_floor: float = NOISE_FLOOR) -> "OrderFit":
        scales = np.asarray(scales, dtype=float)
        defects = np.asarray(defects, dtype=float)
        if defects.size == 0 or not (np.isfinite(defects).all() and np.isfinite(scales).all()):
            # No samples, or a NaN or inf among them: nothing is certified.
            return cls(slope=float("nan"), n_points=0, exact=False)
        keep = defects > noise_floor
        if keep.sum() == 0:
            return cls(slope=float("inf"), n_points=0, exact=True)
        if keep.sum() == 1:
            # One informative scale cannot certify an order.
            return cls(slope=float("nan"), n_points=1, exact=False)
        slope = float(np.polyfit(np.log(scales[keep]), np.log(defects[keep]), 1)[0])
        return cls(slope=slope, n_points=int(keep.sum()))


@dataclass(frozen=True)
class OrderCheck:
    """One graded order check: fitted slope vs threshold with pass margin (in JSON, a slope not finite is null)."""

    name: str
    slope: float
    threshold: float
    margin: float
    passed: bool
    two_sided: bool = False
    scales: tuple[float, ...] = field(default_factory=tuple)
    defects: tuple[float, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "slope": self.slope if np.isfinite(self.slope) else None,
            "exact": self.slope == float("inf"),
            "threshold": self.threshold,
            "margin": self.margin,
            "two_sided": self.two_sided,
            "passed": self.passed,
            "scales": list(self.scales),
            "defects": list(self.defects),
        }


def check_order(
    name: str,
    scales,
    defects,
    threshold: float,
    margin: float = SLOPE_MARGIN,
    two_sided: bool = False,
    noise_floor: float = NOISE_FLOOR,
) -> OrderCheck:
    """Fit the order and compare against ``threshold`` with ``margin``.

    One-sided (default): pass iff slope >= threshold − margin, with exact
    (all-noise) defects passing.  Two-sided: |slope − threshold| <= margin.
    """
    fit = OrderFit.from_samples(scales, defects, noise_floor=noise_floor)
    if fit.exact:
        passed = not two_sided
    elif np.isnan(fit.slope):
        passed = False
    elif two_sided:
        passed = abs(fit.slope - threshold) <= margin
    else:
        passed = fit.slope >= threshold - margin
    return OrderCheck(
        name=name,
        slope=fit.slope,
        threshold=threshold,
        margin=margin,
        passed=passed,
        two_sided=two_sided,
        scales=tuple(float(s) for s in np.asarray(scales, dtype=float)),
        defects=tuple(float(x) for x in np.asarray(defects, dtype=float)),
    )


def order_checks(
    prefix: str, keys: Sequence[Sequence[int]], defects: np.ndarray, spans: np.ndarray,
    scale_ids: np.ndarray, thresholds: Sequence[float], margin: float = SLOPE_MARGIN,
) -> dict:
    """One-sided ``check_order`` of each key k, named ``prefix[letters of
    k]`` (ε when empty), against ``thresholds[k]``: the per-pair defects
    (pairs, keys) and spans (pairs,) are averaged per scale id 0, 1, ….
    """
    counts = np.bincount(scale_ids)
    scales = np.bincount(scale_ids, weights=spans) / counts
    return {
        key: check_order(
            name=f"{prefix}[{','.join(map(str, key)) or 'ε'}]",
            scales=scales,
            defects=np.bincount(scale_ids, weights=defects[:, k]) / counts,
            threshold=thresholds[k],
            margin=margin,
        )
        for k, key in enumerate(keys)
    }


def pair_arrays(scales: Sequence[Sequence[tuple[int, int]]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (i, j) pairs of every scale, in order, as index arrays i and j
    plus each pair's scale id."""
    i, j = np.array([pair for pairs in scales for pair in pairs], dtype=np.intp).reshape(-1, 2).T
    return i, j, np.repeat(np.arange(len(scales)), [len(pairs) for pairs in scales])


def dyadic_pairs(
    n_points: int, max_scales: int | None = None, min_pairs: int = 1
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Disjoint index pairs (i, i + 2^m) per dyadic stride.

    Returns (stride, pairs) for strides 1, 2, 4, …, keeping a stride only
    while at least ``min_pairs`` disjoint pairs fit on the grid.  Large
    strides sit outside the asymptotic power-law regime and carry too few
    samples to aggregate; verifier regressions use min_pairs=8.
    """
    out = []
    stride = 1
    scales = 0
    while (n_points - 1) // stride >= min_pairs:
        if max_scales is not None and scales >= max_scales:
            break
        pairs = [(i, i + stride) for i in range(0, n_points - stride, stride)]
        out.append((stride, pairs))
        stride *= 2
        scales += 1
    return out
