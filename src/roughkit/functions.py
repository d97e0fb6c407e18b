"""Smooth functions with derivative oracles.

Vector fields, terminal data and test functions enter the library through
this interface: a function R^n_in → R^n_out together with an oracle for
mixed partials ∂^α up to a declared order.  Built-in families (polynomial,
trigonometric, affine) carry exact closed-form derivatives of every order;
a central finite-difference fallback wraps black-box callables.

Partial derivatives are indexed by words α over ``{1..n_in}`` (plain int
tuples here).  The oracle must be symmetric under permutations of α; all
built-ins are, by construction.

The module also implements the multivariate higher-order chain rule
(`compose_partial`) and a generalized multi-factor Leibniz rule
(`product_partial`), which downstream code uses to assemble the derivative
oracles of derived vector fields and differential operators exactly.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from .algebra import Word
from .shuffles import ExpansionPlan, deshuffles, expansion_gathers

Alpha = tuple[int, ...]

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _as_point(x, n: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise ValueError(f"expected a point in R^{n}, got shape {x.shape}")
    return x


@lru_cache(maxsize=None)
def _symmetric_gather(n: int, k: int) -> tuple[tuple[Alpha, ...], np.ndarray]:
    """The sorted multi-indices α over {1..n} of order k, and the position
    in that list of sorted(i_1..i_k) for every entry (i_1, …, i_k) of an
    (n,)*k tensor in C order."""
    letters = range(1, n + 1)
    alphas = tuple(itertools.combinations_with_replacement(letters, k))
    position = {alpha: a for a, alpha in enumerate(alphas)}
    gather = np.array([position[tuple(sorted(idx))] for idx in itertools.product(letters, repeat=k)], dtype=np.intp)
    gather.setflags(write=False)
    return alphas, gather


class SmoothFunction:
    """Base class: a function with a mixed-partial oracle.

    Subclasses implement ``value`` or ``values``, and ``partial`` or
    ``partials``: each of a pair has a default through the other.  A family
    with closed-form derivatives overrides ``_sorted_partials``, never
    ``deriv_tensors`` itself.  ``max_order=None`` declares unlimited
    differentiability.
    """

    n_in: int
    n_out: int
    max_order: int | None

    def __init__(self, n_in: int, n_out: int, max_order: int | None = None):
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.max_order = max_order

    # -- point and batch interface -------------------------------------------------

    def value(self, x) -> np.ndarray:
        return self.values(_as_point(x, self.n_in)[None, :])[0]

    def partial(self, x, alpha: Alpha) -> np.ndarray:
        """∂^α at a point; alpha=() returns the value."""
        return self.partials(_as_point(x, self.n_in)[None, :], alpha)[0]

    def values(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.array([self.value(x) for x in xs]).reshape(len(xs), self.n_out)

    def partials(self, xs, alpha: Alpha) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.array([self.partial(x, alpha) for x in xs]).reshape(len(xs), self.n_out)

    def require_order(self, k: int, who: str = "operation"):
        if self.max_order is not None and k > self.max_order:
            raise ValueError(
                f"{who} needs derivatives of order {k}, but only order "
                f"{self.max_order} is declared"
            )

    def deriv_tensor(self, x, k: int) -> np.ndarray:
        """The full symmetric k-linear derivative, shape (n_out, n_in^k).

        Assembled from sorted-index partials; symmetry of the oracle fills
        the remaining slots.
        """
        return self.deriv_tensors(np.asarray(x, dtype=float)[None, :], k)[0]

    def deriv_tensors(self, xs, k: int | Sequence[int]) -> np.ndarray | list[np.ndarray]:
        """Batched ``deriv_tensor``: shape (m, n_out) + (n_in,)*k, or the list of
        them for a sequence of orders k (order 0 is ``values``).  The sorted-α
        partials come from one ``_sorted_partials`` call (for all orders, one
        ``_partials_by_order`` call); a cached gather fills the symmetric rest.
        """
        xs = np.asarray(xs, dtype=float)
        if isinstance(k, (int, np.integer)):
            return self.values(xs) if k == 0 else self._full_tensor(self._sorted_partials(xs, k), k)
        return [self._full_tensor(s, p) for p, s in zip(k, self._partials_by_order(xs, k))]

    def _full_tensor(self, sorted_partials: np.ndarray, k: int) -> np.ndarray:
        if k < 2:  # one sorted α per entry: the values, or the Jacobian transposed
            return sorted_partials[:, 0] if k == 0 else sorted_partials.swapaxes(1, 2)
        full = sorted_partials.take(_symmetric_gather(self.n_in, k)[1], axis=1)
        return full.swapaxes(1, 2).reshape((len(full), self.n_out) + (self.n_in,) * k)

    def _sorted_partials(self, xs: np.ndarray, k: int) -> np.ndarray:
        """∂^α at a batch for every sorted α of order k, in
        ``_symmetric_gather`` order: shape (m, n_alpha, n_out)."""
        alphas, _ = _symmetric_gather(self.n_in, k)
        return np.stack([self.partials(xs, alpha) for alpha in alphas], axis=1)

    def _partials_by_order(self, xs: np.ndarray, orders: Sequence[int]) -> list[np.ndarray]:
        """``_sorted_partials`` of each order (order 0: ``values``), shared by a family that can."""
        return [self.values(xs)[:, None] if k == 0 else self._sorted_partials(xs, k) for k in orders]

    def apply_deriv(self, x, vectors: Sequence[np.ndarray]) -> np.ndarray:
        """D^k f(x)(v_1, …, v_k) with k = len(vectors)."""
        t = self.deriv_tensor(x, len(vectors))
        for v in vectors:
            t = t @ np.asarray(v, dtype=float)
        return t


# ---------------------------------------------------------------------------
# Polynomials.
# ---------------------------------------------------------------------------

PolyComponent = dict[tuple[int, ...], float]


def _poly_diff(component: PolyComponent, letter: int) -> PolyComponent:
    out: PolyComponent = {}
    j = letter - 1
    for expo, c in component.items():
        if expo[j] == 0:
            continue
        new = expo[:j] + (expo[j] - 1,) + expo[j + 1:]
        out[new] = out.get(new, 0.0) + c * expo[j]
    return out


def poly_mul(a: PolyComponent, b: PolyComponent) -> PolyComponent:
    out: PolyComponent = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def poly_add(a: PolyComponent, b: PolyComponent, scale: float = 1.0) -> PolyComponent:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + scale * c
    return {e: c for e, c in out.items() if c != 0.0}


class MonomialSweep:
    """Several polynomial maps R^n_in → R^n_out evaluated together: one
    exponent matrix over the union of their monomials and one coefficient
    matrix, so a batch of points costs one monomial sweep and one matmul."""

    def __init__(self, n_in: int, maps: Sequence[Sequence[PolyComponent]]):
        expos = sorted({e for comps in maps for comp in comps for e in comp})
        index = {e: i for i, e in enumerate(expos)}
        coeff = np.zeros((len(expos), len(maps), len(maps[0])))
        for m, comps in enumerate(maps):
            for c, comp in enumerate(comps):
                for e, val in comp.items():
                    coeff[index[e], m, c] = val
        self.expos = np.asarray(expos, dtype=float).reshape(len(expos), n_in)
        self.shape = coeff.shape[1:]
        self.coeff = coeff.reshape(len(expos), math.prod(self.shape))

    @classmethod
    def from_terms(cls, size: int, expos: np.ndarray, cols: np.ndarray, coeffs: np.ndarray) -> "MonomialSweep":
        """coeffs[t] in column cols[t] of ``size`` on the monomial of the integer exponent row expos[t]."""
        sweep, (union, rows) = cls.__new__(cls), np.unique(expos, axis=0, return_inverse=True)
        sweep.expos, sweep.shape, sweep.coeff = union.astype(float), (size,), np.zeros((len(union), size))
        sweep.coeff[rows.reshape(-1), cols] = coeffs
        return sweep

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """Values of shape (M, len(maps), n_out)."""
        # Overflow on diverging states is deliberate: solvers detect the
        # resulting non-finite values and report blow-up.
        with np.errstate(over="ignore", invalid="ignore"):
            monomials = np.prod(xs[:, None, :] ** self.expos[None, :, :], axis=2)
            return (monomials @ self.coeff).reshape(xs.shape[:1] + self.shape)


class PolynomialFunction(SmoothFunction):
    """Vector of multivariate polynomials with exact derivatives.

    Each output component is a sparse map from exponent tuples to
    coefficients.  Differentiation is symbolic and cached per sorted
    multi-index; each order's partials are one ``MonomialSweep`` compiled
    per order, and any set of orders shares one pass over the monomials.
    """

    def __init__(self, n_in: int, components: Sequence[PolyComponent]):
        super().__init__(n_in, len(components), max_order=None)
        comps = []
        for comp in components:
            clean = {}
            for expo, c in comp.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != n_in or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent tuple {expo} for n_in={n_in}")
                c = float(c)
                if c != 0.0:
                    clean[expo] = clean.get(expo, 0.0) + c
            comps.append(clean)
        self.components: tuple[PolyComponent, ...] = tuple(comps)
        self._derived: dict[Alpha, PolynomialFunction] = {}
        self._plans: dict[tuple[int, ...], tuple[np.ndarray, list]] = {}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, n_in: int, vec) -> "PolynomialFunction":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        zero = (0,) * n_in
        return cls(n_in, [{zero: float(v)} for v in vec])

    @classmethod
    def affine(cls, matrix, offset=None) -> "PolynomialFunction":
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        n_out, n_in = matrix.shape
        offset = np.zeros(n_out) if offset is None else np.asarray(offset, dtype=float)
        comps = []
        for j in range(n_out):
            comp: PolyComponent = {}
            if offset[j] != 0.0:
                comp[(0,) * n_in] = float(offset[j])
            for i in range(n_in):
                if matrix[j, i] != 0.0:
                    expo = tuple(1 if k == i else 0 for k in range(n_in))
                    comp[expo] = float(matrix[j, i])
            comps.append(comp)
        return cls(n_in, comps)

    @classmethod
    def identity(cls, n: int) -> "PolynomialFunction":
        return cls.affine(np.eye(n))

    @classmethod
    def zero(cls, n_in: int, n_out: int) -> "PolynomialFunction":
        return cls(n_in, [{} for _ in range(n_out)])

    # -- evaluation ---------------------------------------------------------------

    def values(self, xs) -> np.ndarray:
        return self._sorted_partials(xs, 0)[:, 0]

    def _sorted_partials(self, xs, k: int) -> np.ndarray:
        return self._partials_by_order(np.asarray(xs, dtype=float), (k,))[0]

    def _partials_by_order(self, xs: np.ndarray, orders: Sequence[int]) -> list[np.ndarray]:
        """x**e once over the union of the orders' exponents; each order's
        ``MonomialSweep`` then gathers its own columns and coefficients."""
        key = tuple(orders)
        if key not in self._plans:
            sweeps = [MonomialSweep(self.n_in, [self.derived(a).components for a in _symmetric_gather(self.n_in, k)[0]])
                      for k in key]
            expos, cols = (sweeps[0].expos, np.arange(len(sweeps[0].expos))) if len(sweeps) == 1 else np.unique(
                np.concatenate([s.expos for s in sweeps]), axis=0, return_inverse=True)  # one order's are distinct
            self._plans[key] = expos, list(zip(np.split(cols, np.cumsum([len(s.expos) for s in sweeps])), sweeps))
        expos, parts = self._plans[key]
        with np.errstate(over="ignore", invalid="ignore"):  # blow-up is reported by the solvers
            monomials = np.prod(xs[:, None, :] ** expos[None, :, :], axis=2)
            return [(monomials.take(c, axis=1) @ s.coeff).reshape(xs.shape[:1] + s.shape) for c, s in parts]

    def derived(self, alpha: Alpha) -> "PolynomialFunction":
        key = tuple(sorted(alpha))
        hit = self._derived.get(key)
        if hit is None:
            comps = self.components
            for letter in key:
                comps = [_poly_diff(c, letter) for c in comps]
            hit = PolynomialFunction(self.n_in, comps)
            self._derived[key] = hit
        return hit

    def partials(self, xs, alpha: Alpha) -> np.ndarray:
        return self.derived(alpha).values(xs)

    # -- serialization ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "family": "polynomial",
            "n_in": self.n_in,
            "components": [
                [{"exponents": list(e), "coeff": c} for e, c in sorted(comp.items())]
                for comp in self.components
            ],
        }


class TrigPolynomial(SmoothFunction):
    """Sums of sinusoids a·sin(⟨k, x⟩ + φ) per component, with exact
    derivatives of every order (each ∂_j scales by k_j and shifts φ by π/2).

    Every order comes from one phase matmul θ = x·Kᵀ + φ over all terms: the
    shifts cycle sin, cos, −sin, −cos, so order p is sin θ (p even) or cos θ
    (p odd) times an amplitude matrix ±a·Π_{j∈α} k_j (the sign of p mod 4) in
    the term's component.  Any set of orders costs one θ, ``sin`` and ``cos``.
    """

    def __init__(self, n_in: int, components: Sequence[Sequence[tuple[float, Sequence[float], float]]]):
        super().__init__(n_in, len(components), max_order=None)
        self.components = tuple(
            tuple((float(a), tuple(float(w) for w in wave), float(phase)) for a, wave, phase in comp)
            for comp in components
        )
        terms = [(c, a, wave, phase) for c, comp in enumerate(self.components) for a, wave, phase in comp]
        if any(len(wave) != n_in for _, _, wave, _ in terms):
            raise ValueError("wave vector length must equal n_in")
        self._terms = terms
        self._waves = np.array([wave for _, _, wave, _ in terms], dtype=float).reshape(len(terms), n_in).T.copy()
        self._phases = np.array([[phase for _, _, _, phase in terms]], dtype=float)
        self._amplitudes: dict[int, np.ndarray] = {}

    @classmethod
    def sin(cls, n_in: int, amp: float, wave, phase: float = 0.0) -> "TrigPolynomial":
        return cls(n_in, [[(amp, wave, phase)]])

    @classmethod
    def cos(cls, n_in: int, amp: float, wave, phase: float = 0.0) -> "TrigPolynomial":
        return cls(n_in, [[(amp, wave, phase + math.pi / 2.0)]])

    def _amplitude(self, k: int) -> np.ndarray:
        amplitudes = self._amplitudes.get(k)
        if amplitudes is None:
            alphas, _ = _symmetric_gather(self.n_in, k)
            amplitudes = np.zeros((len(self._terms), len(alphas), self.n_out))
            for t, (c, a, wave, _) in enumerate(self._terms):
                for j, alpha in enumerate(alphas):  # −sin, −cos for k mod 4 in {2, 3}
                    amplitudes[t, j, c] = math.prod([-a if k % 4 > 1 else a] + [wave[letter - 1] for letter in alpha])
            amplitudes = amplitudes.reshape(len(self._terms), len(alphas) * self.n_out)
            self._amplitudes[k] = amplitudes
        return amplitudes

    def _partials_by_order(self, xs: np.ndarray, orders: Sequence[int]) -> list[np.ndarray]:
        theta = xs.dot(self._waves) + self._phases
        parities = {k % 2 for k in orders}
        cycle = (np.sin(theta) if 0 in parities else None, np.cos(theta) if 1 in parities else None)
        # An explicit α count: the batch axis may be empty.
        shapes = [(len(xs), len(_symmetric_gather(self.n_in, k)[0]), self.n_out) for k in orders]
        return [cycle[k % 2].dot(self._amplitude(k)).reshape(shape) for k, shape in zip(orders, shapes)]

    def _sorted_partials(self, xs, k: int) -> np.ndarray:
        return self._partials_by_order(np.asarray(xs, dtype=float), (k,))[0]

    def values(self, xs) -> np.ndarray:
        return self._sorted_partials(xs, 0)[:, 0]

    def partials(self, xs, alpha: Alpha) -> np.ndarray:
        alphas, _ = _symmetric_gather(self.n_in, len(alpha))
        return self._sorted_partials(xs, len(alpha))[:, alphas.index(tuple(sorted(alpha)))]

    def to_json_dict(self) -> dict:
        return {
            "family": "trig",
            "n_in": self.n_in,
            "components": [
                [{"amp": a, "wave": list(w), "phase": p} for a, w, p in comp]
                for comp in self.components
            ],
        }


class SumFunction(SmoothFunction):
    """Pointwise sum of smooth functions with matching signatures."""

    def __init__(self, parts: Sequence[SmoothFunction]):
        if not parts:
            raise ValueError("need at least one summand")
        n_in, n_out = parts[0].n_in, parts[0].n_out
        if any(p.n_in != n_in or p.n_out != n_out for p in parts):
            raise ValueError("summands must share signature")
        orders = [p.max_order for p in parts]
        max_order = None if all(o is None for o in orders) else min(o for o in orders if o is not None)
        super().__init__(n_in, n_out, max_order)
        self.parts = tuple(parts)

    def values(self, xs):
        return sum(p.values(xs) for p in self.parts)

    def partials(self, xs, alpha):
        return sum(p.partials(xs, alpha) for p in self.parts)


class FiniteDifferenceFunction(SmoothFunction):
    """Central-difference fallback for black-box callables.

    Step h = cbrt(machine epsilon) scaled by max(1, |x_j|) per coordinate.
    Higher orders recurse on first-order differences and lose roughly a
    third of the mantissa per level; declare ``max_order`` accordingly.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], n_in: int, n_out: int, max_order: int = 2):
        super().__init__(n_in, n_out, max_order)
        self._fn = fn

    def value(self, x) -> np.ndarray:
        return np.atleast_1d(np.asarray(self._fn(_as_point(x, self.n_in)), dtype=float))

    def partial(self, x, alpha: Alpha) -> np.ndarray:
        x = _as_point(x, self.n_in)
        if not alpha:
            return self.value(x)
        self.require_order(len(alpha), "finite-difference oracle")
        j = alpha[0] - 1
        h = _FD_STEP * max(1.0, abs(x[j]))
        left, right = x.copy(), x.copy()
        left[j] -= h
        right[j] += h
        rest = alpha[1:]
        return (self.partial(right, rest) - self.partial(left, rest)) / (2.0 * h)


class JetFunction(SmoothFunction):
    """A function known only through its jet at one anchor point.

    Stores the value and mixed partials at ``anchor``; querying anywhere
    else is a contract violation.  Used to carry flow-derivative data into
    chain-rule assemblies.
    """

    def __init__(self, anchor: np.ndarray, value: np.ndarray, partials: dict[Alpha, np.ndarray], max_order: int):
        anchor = np.atleast_1d(np.asarray(anchor, dtype=float))
        value = np.atleast_1d(np.asarray(value, dtype=float))
        super().__init__(len(anchor), len(value), max_order)
        self.anchor = anchor
        self._value = value
        self._partials = {tuple(sorted(a)): np.atleast_1d(np.asarray(v, dtype=float)) for a, v in partials.items()}

    def value(self, x) -> np.ndarray:
        self._check(x)
        return self._value

    def partial(self, x, alpha: Alpha) -> np.ndarray:
        self._check(x)
        if not alpha:
            return self._value
        self.require_order(len(alpha), "jet oracle")
        return self._partials[tuple(sorted(alpha))]

    def _check(self, x):
        x = _as_point(x, self.n_in)
        # Cheaper than np.allclose; NaN and inf fail the comparison and raise.
        if not np.max(np.abs(x - self.anchor)) <= 1e-9:
            raise ValueError("jet oracle queried away from its anchor point")


# ---------------------------------------------------------------------------
# Chain and product rules.
# ---------------------------------------------------------------------------

def graded_expansion(
    tensors: Callable[[int], Sequence[np.ndarray]],
    values: np.ndarray,
    plan: ExpansionPlan,
    width: int,
    present: np.ndarray | None = None,
) -> np.ndarray:
    """Σ_k (1/k!) Σ m·D^kφ(V_{u_1}, …, V_{u_k}) for every target word of an
    ``expansion_plan``, on a batch of M points.

    ``values`` (M, W, n) holds V_u at u's dense word index, and
    ``tensors(k)`` gives D^kφ on the batch as a list of (M, C_j) + (n,)*k
    arrays (say one per field letter).  The result has shape
    (M, targets, width), width = Σ C_j, with the channels in list order.
    Parts whose word is not ``present`` are zero: their terms are skipped,
    and an arity left with no terms never calls ``tensors``.

    Per arity, one ``take`` per slot by the plan's ``expansion_gathers`` and
    their product give every term's V_{u_1} ⊗ … ⊗ V_{u_k}, one batched matmul
    contracts them with D^kφ, and one matmul with ``plan.weights`` sums them.
    """
    m, n = len(values), values.shape[2]
    kept = []
    for (parts, w), gather in zip(plan.arities, expansion_gathers(*plan.key, n)):
        if present is not None:
            keep = present[parts].all(axis=1)
            if not keep.any():
                continue
            w, gather = w[:, keep], [slot[keep] for slot in gather]
        kept.append((gather, w, _operand(tensors(len(gather)), m, n ** len(gather))))
    if not kept:
        return np.zeros((m, plan.targets, width))
    gathers, weights, operands = zip(*kept)
    weights = plan.weights if present is None else np.concatenate(weights, axis=1)
    return _expansion_core(values.reshape(m, values.shape[1] * n), gathers, weights, operands)


def _operand(derivs: Sequence[np.ndarray], m: int, size: int) -> np.ndarray:
    """D^kφ of the channels, (M, C_j) + (n,)*k each, as one (M, n^k, width) matmul operand."""
    return _joined([t.reshape(m, t.shape[1], size) for t in derivs], 1).swapaxes(1, 2)


def _expansion_core(rows: np.ndarray, gathers, weights: np.ndarray | None, operands) -> np.ndarray:
    """Per arity, the product of one take of ``rows`` per gather slot times its operand, joined and weighted."""
    terms = _joined([reduce(np.multiply, [rows.take(s, axis=1) for s in gather]) @ operand
                     for gather, operand in zip(gathers, operands)], 1)
    return terms if weights is None else weights @ terms


def _joined(blocks: list[np.ndarray], axis: int) -> np.ndarray:
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=axis)


def compose_partial(
    outer: SmoothFunction,
    inner: SmoothFunction,
    x,
    alpha: Alpha,
) -> np.ndarray:
    """∂^α(outer ∘ inner)(x) by the multivariate higher-order chain rule.

    Sums, over k and over tuples of non-empty words (β_1..β_k) whose
    shuffles contain α, the contraction of D^k outer at inner(x) with the
    inner partials ∂^{β_j}.  α is a word over {1..inner.n_in}.
    """
    x = _as_point(x, inner.n_in)
    y = inner.value(x)
    if not alpha:
        return outer.value(y)
    m = len(alpha)
    outer.require_order(m, "composition")
    inner.require_order(m, "composition")
    inner_cache: dict[Alpha, np.ndarray] = {}

    def inner_partial(beta: Word) -> np.ndarray:
        key = tuple(sorted(beta.letters))
        hit = inner_cache.get(key)
        if hit is None:
            hit = inner.partial(x, key)
            inner_cache[key] = hit
        return hit

    total = np.zeros(outer.n_out)
    word_alpha = Word(alpha)
    for k in range(1, m + 1):
        tensor = outer.deriv_tensor(y, k)
        acc = np.zeros_like(total)
        for parts, mult in deshuffles(word_alpha, k).weights.items():
            t = tensor
            for beta in parts:
                t = t @ inner_partial(beta)
            acc += mult * t
        total += acc / math.factorial(k)
    return total


class ComposedFunction(SmoothFunction):
    """outer ∘ inner with chain-rule-assembled mixed partials."""

    def __init__(self, outer: SmoothFunction, inner: SmoothFunction):
        if outer.n_in != inner.n_out:
            raise ValueError("composition signature mismatch")
        orders = [o for o in (outer.max_order, inner.max_order) if o is not None]
        super().__init__(inner.n_in, outer.n_out, min(orders) if orders else None)
        self.outer = outer
        self.inner = inner

    def value(self, x):
        return self.outer.value(self.inner.value(_as_point(x, self.n_in)))

    def partial(self, x, alpha: Alpha):
        return compose_partial(self.outer, self.inner, x, alpha)


ScalarFactor = Callable[[np.ndarray, Alpha], float]


def product_partial(factors: Sequence[ScalarFactor], x: np.ndarray, alpha: Alpha) -> float:
    """Generalized Leibniz rule for a product of scalar factors.

    ∂^α ∏_j f_j = Σ over assignments of the letters of α to the factors of
    the product of the assigned partials.  Each factor is a callable
    (x, sub_alpha) → float.
    """
    n_factors = len(factors)
    positions = len(alpha)
    if positions == 0:
        out = 1.0
        for f in factors:
            out *= f(x, ())
        return out
    total = 0.0
    for assignment in itertools.product(range(n_factors), repeat=positions):
        sub: list[tuple[int, ...]] = [() for _ in range(n_factors)]
        for letter, target in zip(alpha, assignment):
            sub[target] = sub[target] + (letter,)
        term = 1.0
        for f, a in zip(factors, sub):
            term *= f(x, a)
            if term == 0.0:
                break
        total += term
    return total


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def _checked(value, where: str, exponent: bool = False):
    """A finite float, or for ``exponent`` an integer >= 0, from a number that is not a bool; else a ValueError."""
    number = float(value) if isinstance(value, (int, float, np.number)) and not isinstance(value, bool) else math.nan
    if exponent and not (number.is_integer() and number >= 0):
        raise ValueError(f"{where}: exponent {value!r} is not a non-negative integer")
    if not math.isfinite(number):
        raise ValueError(f"{where}: {value!r} is not a finite number")
    return int(number) if exponent else number


def function_from_json_dict(data: dict) -> SmoothFunction:
    """A function from its JSON form, checked: finite numbers, exponents integers >= 0 (not bools), no monomial
    twice in a component; a ValueError names the component and the term."""
    family, comps = data.get("family"), data.get("components", [])
    terms = [(c, t, f"component {c}, term {j}") for c, comp in enumerate(comps) for j, t in enumerate(comp)]
    if family == "polynomial":
        comps = [{} for _ in data["components"]]
        for c, t, where in terms:
            expo = tuple(_checked(e, where, exponent=True) for e in t["exponents"])
            if expo in comps[c]:
                raise ValueError(f"{where}: exponents {list(expo)} listed twice")
            comps[c][expo] = _checked(t["coeff"], where)
        return PolynomialFunction(int(data["n_in"]), comps)
    if family == "trig":
        comps = [[] for _ in data["components"]]
        for c, t, where in terms:
            wave = [_checked(k, where) for k in t["wave"]]
            comps[c].append((_checked(t["amp"], where), wave, _checked(t["phase"], where)))
        return TrigPolynomial(int(data["n_in"]), comps)
    if family == "affine":
        matrix, offset = np.atleast_2d(np.asarray(data["matrix"], dtype=float)), data.get("offset")
        for what, array in (("matrix", matrix), ("offset", np.asarray([] if offset is None else offset, dtype=float))):
            for idx in np.argwhere(~np.isfinite(array))[:1]:
                _checked(array[tuple(idx)], f"{what} component {', term '.join(map(str, idx))}")
        return PolynomialFunction.affine(matrix, offset)
    if family == "named":
        name = data["name"]
        n = int(data["n"])
        if name == "zero":
            return PolynomialFunction.zero(n, n)
        if name == "identity":
            return PolynomialFunction.identity(n)
        raise ValueError(f"unknown named function {name!r}")
    raise ValueError(f"unknown function family {family!r}")


def function_to_json_dict(fn: SmoothFunction) -> dict:
    to_json = getattr(fn, "to_json_dict", None)
    if to_json is None:
        raise ValueError(f"{type(fn).__name__} is not serializable")
    return to_json()
