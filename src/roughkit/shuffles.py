"""Shuffle combinatorics on words: deshuffles, the shuffle product, the
character test, and the expansion plans and shift tables compiled from them.

Controlled-path composition, derived vector fields, flow jets and the
graded verifiers read their word combinatorics here; the dense tensors and
their group law stay in ``algebra``, which is all that ``sig`` loads.  Every
table is memoized and pure, so it may be shared freely between threads.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import EMPTY_WORD, TruncatedTensor, Word, _cols, _frozen, _letter_index, _product, _product_table
from .algebra import _scatter_sum, _shuffle_words, _size, _wrap, words_up_to


def deconcat(w: Word) -> list[tuple[Word, Word]]:
    """All splittings uv = w, left to right, including (ε, w) and (w, ε).

    This is the deconcatenation coproduct on the basis element indexed by
    ``w``, returned as the list of index pairs.
    """
    return [(w[:i], w[i:]) for i in range(len(w) + 1)]

def shuffle_word_multiset(u: Word, v: Word) -> dict[Word, int]:
    """Shuffle product of two basis words, with integer multiplicities."""
    return {Word._of(w): c for w, c in _shuffle_words(u.letters, v.letters).items()}


def shuffle_coefficient(w: Word, parts: tuple[Word, ...]) -> int:
    """Multiplicity of e_w in the shuffle product of the given words.

    Counts interleavings directly by dynamic programming over the tuple of
    consumed prefix lengths, independently of the product-expansion route.
    """
    if sum(len(u) for u in parts) != len(w):
        return 0
    letters = tuple(u.letters for u in parts)
    target = w.letters

    @lru_cache(maxsize=None)
    def count(pos: int, state: tuple[int, ...]) -> int:
        if pos == len(target):
            return 1
        total = 0
        c = target[pos]
        for j, consumed in enumerate(state):
            if consumed < len(letters[j]) and letters[j][consumed] == c:
                total += count(pos + 1, state[:j] + (consumed + 1,) + state[j + 1:])
        return total

    result = count(0, (0,) * len(parts))
    count.cache_clear()
    return result


class DeshuffleTable(NamedTuple):
    """Ordered k-tuples of non-empty words whose shuffle hits a target word.

    ``tuples`` uses set semantics: a tuple appearing with shuffle
    multiplicity > 1 is listed once; ``weights`` records that multiplicity,
    i.e. the coefficient of e_w in the shuffle product of the tuple.
    Permuting any member tuple yields another member because the shuffle
    product is commutative.
    """

    word: Word
    arity: int
    tuples: frozenset[tuple[Word, ...]]
    weights: dict[tuple[Word, ...], int]


_DESHUFFLE_CACHE: dict[tuple[tuple[int, ...], int], DeshuffleTable] = {}


def deshuffles(w: Word, k: int) -> DeshuffleTable:
    """All ordered k-tuples (u_1..u_k) of non-empty words with
    nonzero coefficient of e_w in e_{u_1} ⧢ … ⧢ e_{u_k}.

    Enumerates labelings of the letter positions of ``w`` by ``{1..k}``
    using every label; each label class, read left to right, spells one
    word of the tuple.  The number of labelings producing a tuple is
    exactly its shuffle multiplicity, recorded in ``weights`` (graded
    expansions over tuples must be weighted by it: a coincident tuple such
    as ((1),(1)) for w=(1,1) hits e_w twice).  Results are memoized; the
    cache tolerates concurrent reads and idempotent concurrent inserts.
    """
    if not 1 <= k <= len(w):
        raise ValueError(f"deshuffle arity must satisfy 1 <= k <= |w|, got k={k}, |w|={len(w)}")
    key = (w.letters, k)
    hit = _DESHUFFLE_CACHE.get(key)
    if hit is not None:
        return hit
    p = len(w)
    weights: dict[tuple[Word, ...], int] = {}
    for labels in itertools.product(range(k), repeat=p):
        if len(set(labels)) != k:
            continue
        parts = tuple(
            Word._of(tuple(w.letters[i] for i in range(p) if labels[i] == j))
            for j in range(k)
        )
        weights[parts] = weights.get(parts, 0) + 1
    table = DeshuffleTable(word=w, arity=k, tuples=frozenset(weights), weights=weights)
    _DESHUFFLE_CACHE[key] = table
    return table


def shuffle(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Shuffle product, truncated at the larger input level.

    Bilinear and graded: a level-p term against a level-q term lands in
    level p+q and is dropped beyond the truncation.  Commutative and
    associative.
    """
    a._check_compatible(b)
    level = max(a.level, b.level)
    return _wrap(a.dim, level, _product(a.at_level(level).array, b.at_level(level).array, a.dim, level, True))


@lru_cache(maxsize=None)
def _character_table(d: int, level: int):
    """Pairs (u, v) of non-empty words, u <= v in canonical order, with
    |u|+|v| <= N, and the shuffle support of each: (pairs, u, v, w, m, pair
    of each support term)."""
    w, u, v, m = _product_table(d, level, True)
    keep = (u > 0) & (u <= v)
    w, u, v, m = w[keep], u[keep], v[keep], m[keep]
    starts_pair = np.diff(u * _size(d, level) + v, prepend=-1) != 0
    first = np.flatnonzero(starts_pair)
    words = words_up_to(d, level)
    pairs = tuple((words[i], words[j]) for i, j in zip(u[first].tolist(), v[first].tolist()))
    return (pairs,) + _frozen(u[first], v[first], w, m, np.cumsum(starts_pair) - 1)



class CharacterCheck(NamedTuple):
    ok: bool
    violation: float
    worst_pair: tuple[Word, Word] | None


def is_character(a: TruncatedTensor, tol: float = 1e-10) -> CharacterCheck:
    """Test the truncated character property to tolerance.

    Checks ⟨a, e_u ⧢ e_v⟩ = ⟨a, e_u⟩⟨a, e_v⟩ over all basis pairs with
    |u| + |v| <= N and reports the worst violation.  Diagnostic only.  For
    a batch, ``ok`` and ``violation`` hold one entry per row and
    ``worst_pair`` is None.
    """
    x = a.array
    pairs, u, v, w, m, pair = _character_table(a.dim, a.level)
    gaps = np.abs(_cols(x, [0]) - 1.0)
    if pairs:
        lhs = _scatter_sum(_cols(x, w) * m, pair, len(pairs))
        gaps = np.concatenate([gaps, np.abs(lhs - _cols(x, u) * _cols(x, v))], axis=-1)
    worst = gaps.max(axis=-1)
    if x.ndim > 1:
        return CharacterCheck(ok=worst <= tol, violation=worst, worst_pair=None)
    k = int(gaps.argmax())
    worst_pair = None if worst == 0.0 else (EMPTY_WORD, EMPTY_WORD) if k == 0 else pairs[k - 1]
    return CharacterCheck(ok=bool(worst <= tol), violation=float(worst), worst_pair=worst_pair)


class ExpansionPlan(NamedTuple):
    """A plan compiled by ``expansion_plan(*key)``; ``weights`` joins the arities' (None: the identity)."""

    targets: int
    arities: tuple[tuple[np.ndarray, np.ndarray], ...]
    weights: np.ndarray | None
    key: tuple[int, int, int]


@lru_cache(maxsize=None)
def expansion_plan(d: int, lo: int, hi: int) -> ExpansionPlan:
    """Σ_k (1/k!) Σ m·D^kφ(V_{u_1}, …, V_{u_k}) over the deshuffle tuples
    of each target word w, lo <= |w| <= hi in canonical order, compiled.

    ``arities[k−1]`` is (parts, weights) for arity k: ``parts`` (P, k) holds
    the indices in ``words_up_to(d, hi)`` of each tuple, sorted ascending,
    and ``weights`` (targets, P) the summed m/k! of all its orderings.  A
    symmetric D^kφ takes one value on every ordering, so each multiset of
    parts is contracted once.
    """
    targets = [w for w in words_up_to(d, hi) if len(w) >= lo]
    index = _letter_index(d, hi)
    arities = []
    for k in range(1, hi + 1):
        columns: dict[tuple[int, ...], int] = {}
        entries = [
            (t, columns.setdefault(tuple(sorted(index[u.letters] for u in parts)), len(columns)), mult)
            for t, w in enumerate(targets)
            if len(w) >= k
            for parts, mult in deshuffles(w, k).weights.items()
        ]
        weights = np.zeros((len(targets), len(columns)))
        for t, c, mult in entries:
            weights[t, c] += mult
        parts = np.array(list(columns), dtype=np.intp).reshape(len(columns), k)
        arities.append(_frozen(parts, weights / math.factorial(k)))
    weights = np.concatenate([w for _, w in arities] or [np.zeros((0, 0))], axis=1)
    weights = None if np.array_equal(weights, np.eye(*weights.shape)) else _frozen(weights)[0]
    return ExpansionPlan(len(targets), tuple(arities), weights, (d, lo, hi))


@lru_cache(maxsize=None)
def expansion_gathers(d: int, lo: int, hi: int, n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per arity k of ``expansion_plan(d, lo, hi)`` and values in R^n, k (P, n^k) arrays of flat
    indices into a (words·n) row: slot j of V_{u_1}[i_1]·…·V_{u_k}[i_k], (i_1, …, i_k) in C order."""
    arities = [parts.T for parts, _ in expansion_plan(d, lo, hi).arities]
    return tuple(_frozen(*(u[:, :, None] * n + np.indices((n,) * len(u)).reshape(len(u), 1, -1))) for u in arities)


@lru_cache(maxsize=None)
def shift_table(d: int, level: int, prepend: bool) -> np.ndarray:
    """(W, W) dense indices over ``words_up_to(d, level)``: row w, column v
    holds the index of v·w (``prepend``) or of w·v, and −1 where
    |v|+|w| > level; read off the concatenation product table."""
    w, u, v, _ = _product_table(d, level, False)
    table = np.full((_size(d, level),) * 2, -1, dtype=np.intp)
    table[(v, u) if prepend else (u, v)] = w
    return _frozen(table)[0]


def graded_shift(increments: np.ndarray, coeffs: np.ndarray, d: int, level: int, prepend: bool) -> np.ndarray:
    """Σ_v ⟨g_p, e_v⟩ c_p[v·w] (``prepend``) or c_p[w·v] over |v|+|w| <=
    level, for every row p and word w, in one gather and one einsum: dense
    increments (P, ≥W) of any level >= ``level`` act on coeffs
    (P, W, width) over ``words_up_to(d, level)``; the result has the shape
    of coeffs."""
    table = shift_table(d, level, prepend)
    padded = np.concatenate([coeffs, np.zeros((len(coeffs), 1, coeffs.shape[2]))], axis=1)
    return np.einsum("pv,pwvk->pwk", increments[:, : len(table)], padded[:, table])
