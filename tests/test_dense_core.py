"""Dense tensor kernels against the sparse word-dictionary algebra.

The oracle below is the dictionary implementation the dense core replaced:
each product loops over stored words and concatenates or shuffles them one
pair at a time.  The dense kernels must agree with it to 1e-12 relative to
the size of the result, on random sparse and group-like inputs, single and
batched.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughkit.algebra import (
    EMPTY_WORD,
    GroupTensor,
    TruncatedTensor,
    Word,
    _shuffle_words,
    antipode,
    convolution,
    group_inverse,
    homogeneous_norm,
    is_character,
    max_coeff_diff,
    shuffle,
    tensor_exp,
    tensor_log,
    words_up_to,
)
from roughkit.roughpath import PiecewiseLinearPath, lift_pl

Sparse = dict[Word, float]


# ---------------------------------------------------------------------------
# Sparse oracle.
# ---------------------------------------------------------------------------

def sparse_add(a: Sparse, b: Sparse, scale: float = 1.0) -> Sparse:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0.0) + scale * c
    return out


def sparse_convolution(g: Sparse, h: Sparse, level: int) -> Sparse:
    out: Sparse = {}
    for u, cu in g.items():
        for v, cv in h.items():
            if len(u) + len(v) <= level:
                out[u + v] = out.get(u + v, 0.0) + cu * cv
    return out


def sparse_shuffle(a: Sparse, b: Sparse, level: int) -> Sparse:
    out: Sparse = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) > level:
                continue
            for w, mult in _shuffle_words(u.letters, v.letters).items():
                out[Word(w)] = out.get(Word(w), 0.0) + mult * cu * cv
    return out


def sparse_antipode(a: Sparse) -> Sparse:
    return {w.reversed(): (c if len(w) % 2 == 0 else -c) for w, c in a.items()}


def sparse_exp(a: Sparse, level: int) -> Sparse:
    out: Sparse = {EMPTY_WORD: 1.0}
    power: Sparse = {EMPTY_WORD: 1.0}
    for k in range(1, level + 1):
        power = sparse_convolution(power, a, level)
        out = sparse_add(out, power, 1.0 / math.factorial(k))
    return out


def sparse_log(g: Sparse, level: int) -> Sparse:
    base = {w: c for w, c in g.items() if len(w) >= 1}
    out: Sparse = {}
    power: Sparse = {EMPTY_WORD: 1.0}
    for k in range(1, level + 1):
        power = sparse_convolution(power, base, level)
        out = sparse_add(out, power, (-1.0) ** (k + 1) / k)
    return out


def sparse_character_violation(a: Sparse, d: int, level: int) -> float:
    worst = abs(a.get(EMPTY_WORD, 0.0) - 1.0)
    candidates = [w for w in words_up_to(d, level - 1) if len(w) >= 1] if level >= 1 else []
    for i, u in enumerate(candidates):
        for v in candidates[i:]:
            if len(u) + len(v) > level:
                continue
            lhs = sum(
                mult * a.get(Word(w), 0.0)
                for w, mult in _shuffle_words(u.letters, v.letters).items()
            )
            worst = max(worst, abs(lhs - a.get(u, 0.0) * a.get(v, 0.0)))
    return worst


def sparse_norm(g: Sparse, noise_floor: float = 1e-14) -> float:
    return max(
        (
            (math.factorial(len(w)) * abs(c)) ** (1.0 / len(w))
            for w, c in g.items()
            if len(w) >= 1 and abs(c) > noise_floor
        ),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# Inputs and comparison.
# ---------------------------------------------------------------------------

def random_sparse(rng, d: int, level: int, augmented: bool = True) -> Sparse:
    words = [w for w in words_up_to(d, level) if augmented or len(w) >= 1]
    if not words:
        return {}
    picks = rng.integers(0, len(words), size=rng.integers(1, 7))
    return {words[i]: float(rng.standard_normal()) for i in picks}


def random_group_like(rng, d: int, level: int) -> Sparse:
    g: Sparse = {EMPTY_WORD: 1.0}
    for _ in range(3):
        seg = {Word((i + 1,)): float(x) for i, x in enumerate(rng.standard_normal(d))}
        g = sparse_convolution(g, sparse_exp(seg, level), level)
    return g


def dense(coeffs: Sparse, d: int, level: int) -> TruncatedTensor:
    return TruncatedTensor(d, level, coeffs)


def assert_matches(got: TruncatedTensor, oracle: Sparse, d: int, level: int):
    expected = dense(oracle, d, level)
    scale = max(1.0, expected.norm_inf())
    assert got.dim == d and got.level == level
    assert max_coeff_diff(got, expected) <= 1e-12 * scale


def batch(rows: list[Sparse], d: int, level: int) -> TruncatedTensor:
    return TruncatedTensor.from_array(d, level, np.stack([dense(r, d, level).array for r in rows]))


def row(t: TruncatedTensor, i: int) -> TruncatedTensor:
    return TruncatedTensor.from_array(t.dim, t.level, t.array[i])


shapes = st.tuples(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1))


# ---------------------------------------------------------------------------
# Single tensors.
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(shapes)
def test_products_match_sparse_oracle(shape):
    d, level, seed = shape
    rng = np.random.default_rng(seed)
    a, b = random_sparse(rng, d, level), random_sparse(rng, d, level)
    assert_matches(convolution(dense(a, d, level), dense(b, d, level)), sparse_convolution(a, b, level), d, level)
    assert_matches(antipode(dense(a, d, level)), sparse_antipode(a), d, level)
    low = int(rng.integers(0, level + 1))
    c = random_sparse(rng, d, low)
    assert_matches(shuffle(dense(a, d, level), dense(c, d, low)), sparse_shuffle(a, c, level), d, level)


@settings(max_examples=60, deadline=None)
@given(shapes)
def test_exp_log_match_sparse_oracle(shape):
    d, level, seed = shape
    rng = np.random.default_rng(seed)
    a = random_sparse(rng, d, level, augmented=False)
    vec = {Word((i + 1,)): float(x) for i, x in enumerate(rng.standard_normal(d))}
    if level == 0:
        vec = {}
    for x in (a, vec):
        assert_matches(tensor_exp(dense(x, d, level)).tensor, sparse_exp(x, level), d, level)
    g = random_group_like(rng, d, level)
    assert_matches(tensor_log(GroupTensor(dense(g, d, level))), sparse_log(g, level), d, level)
    assert_matches(group_inverse(GroupTensor(dense(g, d, level)), tol=None).tensor, sparse_antipode(g), d, level)
    norm = homogeneous_norm(GroupTensor(dense(g, d, level)))
    assert abs(norm - sparse_norm(g)) <= 1e-12 * max(1.0, norm)


@settings(max_examples=60, deadline=None)
@given(shapes)
def test_character_check_matches_sparse_oracle(shape):
    d, level, seed = shape
    rng = np.random.default_rng(seed)
    for x in (random_sparse(rng, d, level), random_group_like(rng, d, level)):
        expected = sparse_character_violation(x, d, level)
        got = is_character(dense(x, d, level), tol=1e-10)
        assert abs(got.violation - expected) <= 1e-12 * max(1.0, expected)
        assert got.ok == (got.violation <= 1e-10)


# ---------------------------------------------------------------------------
# Batches, compared row by row.
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(shapes, st.integers(1, 5))
def test_batched_kernels_match_sparse_oracle_by_row(shape, size):
    d, level, seed = shape
    rng = np.random.default_rng(seed)
    a = [random_sparse(rng, d, level) for _ in range(size)]
    b = [random_sparse(rng, d, level) for _ in range(size)]
    free = [random_sparse(rng, d, level, augmented=False) for _ in range(size)]
    groups = [random_group_like(rng, d, level) for _ in range(size)]
    vectors = rng.standard_normal((size, d))

    conv = convolution(batch(a, d, level), batch(b, d, level))
    shuf = shuffle(batch(a, d, level), batch(b, d, level))
    anti = antipode(batch(a, d, level))
    exps = tensor_exp(batch(free, d, level)).tensor
    logs = tensor_log(GroupTensor(batch(groups, d, level)))
    checks = is_character(batch(a + groups, d, level))
    norms = homogeneous_norm(GroupTensor(batch(groups, d, level)))
    level_one = tensor_exp(TruncatedTensor.from_vector(vectors, level)).tensor if level >= 1 else None
    assert checks.ok.shape == (2 * size,)

    for i in range(size):
        assert_matches(row(conv, i), sparse_convolution(a[i], b[i], level), d, level)
        assert_matches(row(shuf, i), sparse_shuffle(a[i], b[i], level), d, level)
        assert_matches(row(anti, i), sparse_antipode(a[i]), d, level)
        assert_matches(row(exps, i), sparse_exp(free[i], level), d, level)
        assert_matches(row(logs, i), sparse_log(groups[i], level), d, level)
        assert abs(norms[i] - sparse_norm(groups[i])) <= 1e-12 * max(1.0, norms[i])
        for j, x in ((i, a[i]), (size + i, groups[i])):
            expected = sparse_character_violation(x, d, level)
            assert abs(checks.violation[j] - expected) <= 1e-12 * max(1.0, expected)
        if level_one is not None:
            vec = {Word((k + 1,)): float(x) for k, x in enumerate(vectors[i])}
            assert_matches(row(level_one, i), sparse_exp(vec, level), d, level)


def test_level_one_exp_is_bit_identical_to_the_series():
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(2)
    got = tensor_exp(TruncatedTensor.from_vector(vec, 4)).tensor
    oracle = sparse_exp({Word((i + 1,)): float(x) for i, x in enumerate(vec)}, 4)
    assert got == dense(oracle, 2, 4)


def test_single_tensor_reads_reject_a_batch():
    rng = np.random.default_rng(1)
    groups = batch([random_group_like(rng, 2, 3) for _ in range(3)], 2, 3)
    for read in (
        lambda t: t.coeff(Word((1,))),
        lambda t: t.coeff(Word((3,))),
        lambda t: t.pair(t),
        lambda t: t.terms(),
        lambda t: t.words(),
        lambda t: repr(t),
    ):
        with pytest.raises(ValueError, match="single tensor"):
            read(groups)
    assert np.array_equal(groups.norm_inf(), np.abs(groups.array).max(axis=1))


def test_holder_diagnostic_matches_pairwise_increments():
    rng = np.random.default_rng(2)
    values = np.cumsum(rng.standard_normal((9, 2)), axis=0)
    values[0] = 0.0
    rp = lift_pl(PiecewiseLinearPath(np.linspace(0.0, 1.0, 9), values), gamma=0.4, level=3)
    grid = np.array([0.0, 0.1, 0.1, 0.37, 0.5, 0.93, 1.0])
    expected = {w: 0.0 for w in words_up_to(2, 3) if len(w) >= 1}
    for i, s in enumerate(grid):
        for t in grid[i + 1:]:
            if t > s:
                for w, c in rp.increment(s, t).tensor.terms():
                    if len(w) >= 1:
                        expected[w] = max(expected[w], abs(c) / (t - s) ** (len(w) * 0.4))
    assert rp.holder_diagnostic(grid) == expected
