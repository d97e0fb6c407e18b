"""Truncated tensor algebra on words and its character group.

Everything downstream (rough paths, controlled paths, RDE solvers, rough
PDEs) is indexed by words over the alphabet ``{1..d}``.  This module houses
the graded arithmetic that ``sig`` runs: truncated tensors, the antipode,
the convolution (concatenation) product on the dual, group-like elements
(truncated characters) and their exp/log.  The shuffle side lives in
``shuffles``, loaded on first use; its names still resolve here (PEP 562).

Tensors are dense float64 arrays over the canonical word order, and the
products are gather-multiply-sum kernels over index tables compiled once
per (d, N); they accept a leading batch axis.  Algebraic identities are
validated to tolerance by the callers (exact rationals are out of scope).
All objects are immutable values after construction and all operations are
pure, so everything here may be shared freely between threads.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np


class Word:
    """An immutable word over a positive-integer alphabet.

    The empty word is the unique word of length 0.  Concatenation is ``+``.
    Ordering is canonical: by length, then lexicographic.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(int(i) for i in letters)
        if any(i < 1 for i in letters):
            raise ValueError(f"word letters must be >= 1, got {letters}")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _of(cls, letters: tuple[int, ...]) -> "Word":
        """A word from letters taken from valid words, without the check."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word._of(self.letters[item])
        return self.letters[item]

    def __hash__(self) -> int:
        return hash(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __add__(self, other: "Word") -> "Word":
        return Word._of(self.letters + other.letters)

    def __repr__(self) -> str:
        return "Word(%s)" % (",".join(str(i) for i in self.letters) or "ε")

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), self.letters)

    def reversed(self) -> "Word":
        return Word._of(self.letters[::-1])

    @property
    def max_letter(self) -> int:
        return max(self.letters, default=1)


EMPTY_WORD = Word(())


def word(*letters: int) -> Word:
    """Convenience constructor: ``word(1, 2) == Word((1, 2))``."""
    return Word(letters)


@lru_cache(maxsize=None)
def words_of_length(d: int, p: int) -> tuple[Word, ...]:
    """All words of length ``p`` over ``{1..d}`` in lexicographic order."""
    return tuple(Word._of(t) for t in itertools.product(range(1, d + 1), repeat=p))


@lru_cache(maxsize=None)
def words_up_to(d: int, level: int) -> tuple[Word, ...]:
    """All words of length <= ``level`` in canonical (length, lex) order."""
    out: list[Word] = []
    for p in range(level + 1):
        out.extend(words_of_length(d, p))
    return tuple(out)


@lru_cache(maxsize=None)
def _shuffle_words(u: tuple[int, ...], v: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Multiset of interleavings of u and v as a word -> multiplicity map."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[tuple[int, ...], int] = {}
    for w, c in _shuffle_words(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in _shuffle_words(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    return out


# ---------------------------------------------------------------------------
# Dense layout and compiled index tables.
#
# A tensor is one float64 array over ``words_up_to(d, N)``: the word w sits
# at its level offset Σ_{k<|w|} d^k plus its base-d rank.  Each product is
# a gather, a multiply and a scatter-add over index tables compiled once
# per (d, N).  The kernels act on the last axis, so a leading batch axis
# passes through, and a single tensor against a batch broadcasts.
# ---------------------------------------------------------------------------

def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _letter_index(d: int, level: int) -> dict[tuple[int, ...], int]:
    """Dense index of each word, keyed by its letters."""
    return {w.letters: i for i, w in enumerate(words_up_to(d, level))}


@lru_cache(maxsize=None)
def _lengths(d: int, level: int) -> np.ndarray:
    """Word length per dense index."""
    return _frozen(np.repeat(np.arange(level + 1), [d**p for p in range(level + 1)]))[0]


def _size(d: int, level: int) -> int:
    return len(_lengths(d, level))


@lru_cache(maxsize=None)
def _product_table(d: int, level: int, shuffled: bool) -> tuple[np.ndarray, ...]:
    """(w, u, v, m) with e_u·e_v = Σ m e_w for the concatenation or the
    shuffle product, over basis pairs with |u|+|v| <= N in canonical pair
    order; a convolution thus sums each w over |u| ascending."""
    words = words_up_to(d, level)
    index = _letter_index(d, level)
    terms = [
        (index[w], i, j, m)
        for i, u in enumerate(words)
        for j, v in enumerate(words)
        if len(u) + len(v) <= level
        for w, m in (_shuffle_words(u.letters, v.letters) if shuffled else {u.letters + v.letters: 1}).items()
    ]
    w, u, v, m = (np.asarray(c) for c in zip(*terms))
    return _frozen(w, u, v, m.astype(float))


@lru_cache(maxsize=None)
def _antipode_table(d: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, sign): ⟨S a, e_w⟩ = (−1)^{|w|} ⟨a, e_{reversed w}⟩."""
    index = _letter_index(d, level)
    source = np.asarray([index[w.letters[::-1]] for w in words_up_to(d, level)])
    return _frozen(source, 1.0 - 2.0 * (_lengths(d, level) % 2))


def _cols(x: np.ndarray, idx) -> np.ndarray:
    """``x[..., idx]`` for a single tensor or a batch; the Ellipsis form
    costs several times more on the small arrays of the hot paths."""
    return x[idx] if x.ndim == 1 else x[:, idx]


def _scatter_sum(terms: np.ndarray, target: np.ndarray, n: int) -> np.ndarray:
    """out[..., k] = Σ terms[..., t] over target[t] == k, accumulated in
    table order (so results do not depend on the batch shape)."""
    if terms.ndim == 1:
        return np.bincount(target, weights=terms, minlength=n)
    rows = len(terms)
    flat = (target + n * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, weights=terms.ravel(), minlength=rows * n).reshape(rows, n)


def _product(x: np.ndarray, y: np.ndarray, d: int, level: int, shuffled: bool) -> np.ndarray:
    w, u, v, m = _product_table(d, level, shuffled)
    terms = _cols(x, u) * _cols(y, v)
    return _scatter_sum(terms * m if shuffled else terms, w, _size(d, level))


def _unit_gap(x: np.ndarray) -> float:
    """Largest |⟨g, 𝟙⟩ − 1| over a single tensor or a batch."""
    return abs(x[0] - 1.0) if x.ndim == 1 else float(np.abs(x[:, 0] - 1.0).max(initial=0.0))


def _scalar(x):
    """A Python float for an unbatched result, the array otherwise."""
    return float(x) if x.ndim == 0 else x


# ---------------------------------------------------------------------------
# Truncated tensors.
# ---------------------------------------------------------------------------

class TruncatedTensor:
    """Element of the step-N truncated tensor algebra, stored densely.

    ``array`` holds one float64 coefficient per word of length <= ``level``
    in canonical (length, lex) order; absent words are zero.  It may carry a
    leading batch axis, shape (B, size): the module's products then act row
    by row and coefficient reads return one value per row.  The same
    representation serves elements of H_N and of its dual H_N* (the pairing
    is the dot product), which is convenient if not algebraically fussy.
    """

    __slots__ = ("dim", "level", "array")

    def __init__(self, dim: int, level: int, coeffs: dict[Word, float] | None = None):
        _check_shape(dim, level)
        arr = np.zeros(_size(dim, level))
        index = _letter_index(dim, level)
        for w, c in (coeffs or {}).items():
            if len(w) > level:
                raise ValueError(f"word {w} exceeds truncation level {level}")
            if w.max_letter > dim:
                raise ValueError(f"word {w} uses letters beyond alphabet size {dim}")
            arr[index[w.letters]] = float(c)
        _set(self, dim, level, arr)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedTensor is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_array(cls, dim: int, level: int, values) -> "TruncatedTensor":
        """A copy of dense coefficients, shape (size,) or a batch (B, size)."""
        _check_shape(dim, level)
        arr = np.array(values, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[-1] != _size(dim, level):
            raise ValueError(f"need shape (..., {_size(dim, level)}) for d={dim}, N={level}, got {arr.shape}")
        return _wrap(dim, level, arr)

    @classmethod
    def zero(cls, dim: int, level: int) -> "TruncatedTensor":
        return cls(dim, level)

    @classmethod
    def unit(cls, dim: int, level: int) -> "TruncatedTensor":
        """The unit 𝟙 (equally the counit 𝟙* on the dual side)."""
        _check_shape(dim, level)
        return _wrap(dim, level, np.eye(1, _size(dim, level))[0])

    @classmethod
    def basis(cls, dim: int, level: int, w: Word) -> "TruncatedTensor":
        return cls(dim, level, {w: 1.0})

    @classmethod
    def from_vector(cls, vec, level: int) -> "TruncatedTensor":
        """Embed a vector of R^d as the level-1 element Σ_i vec_i e_i; a
        (B, d) array gives a batch of B such elements."""
        vec = np.asarray(vec, dtype=float)
        _check_shape(vec.shape[-1], level)
        if level < 1 or vec.ndim > 2:
            raise ValueError(f"need level >= 1 and one vector or a batch, got N={level}, shape {vec.shape}")
        arr = np.zeros(vec.shape[:-1] + (_size(vec.shape[-1], level),))
        arr.T[1 : vec.shape[-1] + 1] = vec.T
        return _wrap(vec.shape[-1], level, arr)

    # -- inspection ----------------------------------------------------------

    def coeff(self, w: Word) -> float:
        arr, i = self._single(), _letter_index(self.dim, self.level).get(w.letters)
        return 0.0 if i is None else float(arr[i])

    def terms(self) -> list[tuple[Word, float]]:
        """Non-zero terms in canonical (length, lex) word order."""
        nz = self._single().nonzero()[0]
        words = words_up_to(self.dim, self.level)
        return [(words[i], c) for i, c in zip(nz.tolist(), self.array[nz].tolist())]

    def words(self) -> set[Word]:
        return {w for w, _ in self.terms()}

    def pair(self, other: "TruncatedTensor") -> float:
        """Dot product ⟨self, other⟩ over the words both levels hold."""
        self._check_compatible(other)
        n = min(self.array.shape[-1], other.array.shape[-1])
        return float(self._single()[:n] @ other._single()[:n])

    def norm_inf(self):
        return _scalar(np.abs(self.array).max(axis=-1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedTensor)
            and (self.dim, self.level) == (other.dim, other.level)
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        # + 0.0 maps −0.0 to 0.0, which compares equal.
        return hash((self.dim, self.level, (self.array + 0.0).tobytes()))

    def __repr__(self) -> str:
        inner = " + ".join(f"{c:g}*e{w.letters}" for w, c in self.terms()) or "0"
        return f"TruncatedTensor(d={self.dim}, N={self.level}: {inner})"

    def _single(self) -> np.ndarray:
        if self.array.ndim != 1:
            raise ValueError("operation needs a single tensor, not a batch")
        return self.array

    # -- graded linear structure ----------------------------------------------

    def __add__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        self._check_compatible(other)
        level = max(self.level, other.level)
        return _wrap(self.dim, level, self.at_level(level).array + other.at_level(level).array)

    def __sub__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "TruncatedTensor":
        return _wrap(self.dim, self.level, float(scalar) * self.array)

    __rmul__ = __mul__

    def __neg__(self) -> "TruncatedTensor":
        return self * -1.0

    def at_level(self, level: int) -> "TruncatedTensor":
        """Re-truncate, allowing the level to grow (new words stay zero)."""
        _check_shape(self.dim, level)
        n = min(_size(self.dim, level), self.array.shape[-1])
        arr = np.zeros(self.array.shape[:-1] + (_size(self.dim, level),))
        arr[..., :n] = self.array[..., :n]
        return _wrap(self.dim, level, arr)

    truncated = at_level

    def graded_piece(self, p: int) -> "TruncatedTensor":
        return _wrap(self.dim, self.level, np.where(_lengths(self.dim, self.level) == p, self.array, 0.0))

    def _check_compatible(self, other: "TruncatedTensor"):
        if self.dim != other.dim:
            raise ValueError(f"alphabet size mismatch: {self.dim} vs {other.dim}")

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "d": self.dim,
            "level": self.level,
            "terms": [{"word": list(w.letters), "value": c} for w, c in self.terms()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TruncatedTensor":
        return cls(int(data["d"]), int(data["level"]), {Word(t["word"]): float(t["value"]) for t in data["terms"]})

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "TruncatedTensor":
        return cls.from_json_dict(json.loads(text))


def _check_shape(dim: int, level: int):
    if dim < 1:
        raise ValueError(f"alphabet size must be >= 1, got {dim}")
    if level < 0:
        raise ValueError(f"truncation level must be >= 0, got {level}")


def _set(t: TruncatedTensor, dim: int, level: int, arr: np.ndarray):
    arr.setflags(write=False)
    object.__setattr__(t, "dim", dim)
    object.__setattr__(t, "level", level)
    object.__setattr__(t, "array", arr)


def _wrap(dim: int, level: int, arr: np.ndarray) -> TruncatedTensor:
    """A tensor around a freshly computed array, without validation."""
    t = object.__new__(TruncatedTensor)
    _set(t, dim, level, arr)
    return t


def max_coeff_diff(a: TruncatedTensor, b: TruncatedTensor):
    """Largest absolute coefficient difference (per row for a batch)."""
    return (a - b).norm_inf()


# ---------------------------------------------------------------------------
# Products on tensors.
# ---------------------------------------------------------------------------

def antipode(a: TruncatedTensor) -> TruncatedTensor:
    """The antipode: e_{i_1..i_p} ↦ (−1)^p e_{i_p..i_1}, extended linearly."""
    source, sign = _antipode_table(a.dim, a.level)
    return _wrap(a.dim, a.level, _cols(a.array, source) * sign)


def convolution(g: TruncatedTensor, h: TruncatedTensor) -> TruncatedTensor:
    """Convolution product ⟨g⋆h, e_w⟩ = Σ_{uv=w} ⟨g,e_u⟩⟨h,e_v⟩.

    On the dual basis this concatenates: e_u* ⋆ e_v* = e_{uv}*.  Restricted
    to characters it is the group law.  Inputs must share d and N.
    """
    g._check_compatible(h)
    if g.level != h.level:
        raise ValueError(f"truncation level mismatch: {g.level} vs {h.level}")
    return _wrap(g.dim, g.level, _product(g.array, h.array, g.dim, g.level, False))


def tensor_exp(a: TruncatedTensor) -> "GroupTensor":
    """Convolution exponential of an augmentation-free element.

    The series terminates after at most N convolution powers because ``a``
    has no 𝟙 component.  The exponential of a level-1 element is a
    character.
    """
    x, d, level = a.array, a.dim, a.level
    if np.count_nonzero(_cols(x, [0])):
        raise ValueError("tensor_exp requires a vanishing 𝟙 coefficient")
    out = np.zeros(x.shape)
    out.T[0] = 1.0
    power = out
    for k in range(1, level + 1):
        power = _product(power, x, d, level, False)
        out = out + (1.0 / math.factorial(k)) * power
    return GroupTensor(_wrap(d, level, out))


def tensor_log(g: "GroupTensor | TruncatedTensor") -> TruncatedTensor:
    """Convolution logarithm; inverse of tensor_exp up to floating error."""
    t = g.tensor if isinstance(g, GroupTensor) else g
    if _unit_gap(t.array) > 1e-9:
        raise ValueError("tensor_log requires unit 𝟙 coefficient")
    base = t.array.copy()
    base.T[0] = 0.0
    out = np.zeros(base.shape)
    power = TruncatedTensor.unit(t.dim, t.level).array
    for k in range(1, t.level + 1):
        power = _product(power, base, t.dim, t.level, False)
        out = out + ((-1.0) ** (k + 1) / k) * power
    return _wrap(t.dim, t.level, out)


class GroupTensor:
    """A truncated tensor with unit 𝟙 coefficient, used as a group element.

    Rough-path increments live here; a batched tensor holds a batch of group
    elements.  Full character validation is a separate explicit call
    (`is_character`); construction only enforces the normalization
    ⟨g, 𝟙⟩ = 1.
    """

    __slots__ = ("tensor",)

    def __init__(self, tensor: TruncatedTensor):
        if _unit_gap(tensor.array) > 1e-9:
            raise ValueError("group element must have unit 𝟙 coefficient")
        object.__setattr__(self, "tensor", tensor)

    def __setattr__(self, name, value):
        raise AttributeError("GroupTensor is immutable")

    @classmethod
    def identity(cls, dim: int, level: int) -> "GroupTensor":
        return cls(TruncatedTensor.unit(dim, level))

    @property
    def dim(self) -> int:
        return self.tensor.dim

    @property
    def level(self) -> int:
        return self.tensor.level

    def coeff(self, w: Word):
        return self.tensor.coeff(w)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupTensor) and self.tensor == other.tensor

    def __repr__(self) -> str:
        return f"GroupTensor({self.tensor!r})"

    def convolve(self, other: "GroupTensor") -> "GroupTensor":
        return GroupTensor(convolution(self.tensor, other.tensor))


def group_inverse(g: GroupTensor, tol: float | None = 1e-8) -> GroupTensor:
    """Group inverse via the antipode: g^{-1} = g ∘ S.

    When ``tol`` is given, flags non-character input by checking the
    convolution residual ‖g ⋆ g^{-1} − 𝟙*‖_∞ (g∘S inverts g exactly when g
    is a character).  Pass ``tol=None`` to skip the check in hot paths.
    """
    inv = antipode(g.tensor)
    if tol is not None:
        product = _wrap(g.dim, g.level, _product(g.tensor.array, inv.array, g.dim, g.level, False))
        residual = float(np.max(max_coeff_diff(product, TruncatedTensor.unit(g.dim, g.level))))
        if residual > tol:
            raise ValueError(
                f"group_inverse: input is not a character to tolerance "
                f"(convolution residual {residual:.3e} > {tol:.3e})"
            )
    return GroupTensor(inv)


def homogeneous_norm(g: GroupTensor, noise_floor: float = 1e-14):
    """Diagnostic homogeneous norm max_k max_{|w|=k} (k!·|⟨g,e_w⟩|)^{1/k}.

    A computable surrogate used only for Hölder diagnostics, never for
    correctness decisions.  Coefficients at or below ``noise_floor`` are
    treated as zero: the k-th root would otherwise amplify float noise on
    near-identity elements to ~1e-6.
    """
    k = _lengths(g.dim, g.level)
    c = np.abs(g.tensor.array)
    factorial = np.asarray([math.factorial(p) for p in range(g.level + 1)], dtype=float)[k]
    root = (factorial * c) ** (1.0 / np.maximum(k, 1))
    return _scalar(np.where((k > 0) & (c > noise_floor), root, 0.0).max(axis=-1))


def group_distance(g: GroupTensor, h: GroupTensor) -> float:
    """Left-invariant distance ‖h^{-1} ⋆ g‖ under the diagnostic norm."""
    return homogeneous_norm(group_inverse(h, tol=None).convolve(g))


# The shuffle side moved to ``shuffles``; its names resolve here on first use (PEP 562).
_SHUFFLES = frozenset("""deconcat shuffle_word_multiset shuffle_coefficient DeshuffleTable _DESHUFFLE_CACHE deshuffles
    _character_table CharacterCheck is_character ExpansionPlan expansion_plan expansion_gathers shift_table graded_shift
    shuffle""".split())


def __getattr__(name: str):
    if name not in _SHUFFLES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import shuffles

    return getattr(shuffles, name)
