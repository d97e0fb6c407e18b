"""The jet chain rule through the deshuffle kernel.

``jet_compose``, ``jet_apply`` and ``JetVectorField.value`` chain jets by
one ``graded_expansion`` call on ``expansion_plan(n, 1, jet_order)``.  They
are compared here with a test-local copy of the per-partition einsum route
they replaced, on non-symmetric inner blocks and symmetric outer stacks for
every batch shape the library uses; the Bell numbers check a jet order the
einsum route could not reach.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from roughkit.functions import PolynomialFunction
from roughkit.jets import JetSpace, JetVectorField, jet_apply, jet_compose, set_partitions


def einsum_jet_apply(outer_stack, inner_blocks, p):
    """Σ_{π∈P(p)} D^{#π}outer(y_{|B_1|}, …), one einsum per set partition."""
    letters = "abcdefghijkl"
    out = 0.0
    for partition in set_partitions(p):
        q = len(partition)
        operands = [outer_stack[q]]
        spec = ["...z" + letters[:q]]
        for j, block in enumerate(partition):
            operands.append(inner_blocks[len(block)])
            spec.append("..." + letters[j] + "".join(letters[q + pos] for pos in block))
        out_spec = "...z" + "".join(letters[q + pos] for pos in range(p))
        out = out + np.einsum(",".join(spec) + "->" + out_spec, *operands)
    return out


def einsum_jet_compose(outer_stack, inner_blocks):
    return [outer_stack[0]] + [einsum_jet_apply(outer_stack, inner_blocks, p) for p in range(1, len(inner_blocks))]


def symmetric(t, k):
    """t averaged over every permutation of its last k axes."""
    lead = tuple(range(t.ndim - k))
    perms = itertools.permutations(range(t.ndim - k, t.ndim))
    return sum(np.transpose(t, lead + perm) for perm in perms) / math.factorial(k)


def close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    jet_order=st.integers(1, 4),
    batch=st.sampled_from([(), (3,), (2, 3)]),
    width=st.integers(1, 2),
    seed=st.integers(0, 10_000),
)
def test_jet_compose_matches_the_per_partition_einsum(n, jet_order, batch, width, seed):
    rng = np.random.default_rng(seed)
    inner = [rng.normal(0.0, 1.0, batch + (n,) * (p + 1)) for p in range(jet_order + 1)]
    outer = [symmetric(rng.normal(0.0, 1.0, batch + (width,) + (n,) * k), k) for k in range(jet_order + 1)]
    got, want = jet_compose(outer, inner), einsum_jet_compose(outer, inner)
    assert len(got) == jet_order + 1 and got[0] is outer[0]
    for p in range(1, jet_order + 1):
        assert close(got[p], want[p]), p
        assert close(jet_apply(outer, inner, p), want[p]), p
    assert np.array_equal(jet_apply(outer, inner, 0), outer[0])


def test_jet_order_seven_gives_the_bell_numbers():
    # n = 1, all-ones stacks: block p counts the set partitions of p slots.
    inner = [np.ones((1,) * (p + 1)) for p in range(8)]
    outer = [np.ones((1,) * (k + 1)) for k in range(8)]
    blocks = jet_compose(outer, inner)
    assert [float(b.ravel()[0]) for b in blocks[1:]] == [1, 2, 5, 15, 52, 203, 877]
    assert jet_apply(outer, inner, 7).shape == (1,) * 8
    assert float(jet_apply(outer, inner, 7).ravel()[0]) == 877


def test_chain_rule_runs_without_einsum(monkeypatch):
    rng = np.random.default_rng(5)
    n, jet_order = 2, 3
    f = PolynomialFunction(n, [{(2, 1): 0.5, (1, 0): -0.7, (0, 3): 0.2}, {(0, 2): 0.9, (1, 1): 0.4}])
    space = JetSpace(n, jet_order)
    lifted = JetVectorField(f, space)
    z = rng.normal(0.0, 0.5, space.dim)
    blocks = space.unpack(z)
    stack = [t[0] for t in f.deriv_tensors(blocks[0][None], range(jet_order + 1))]
    want = einsum_jet_compose(stack, blocks)

    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum was called")

    monkeypatch.setattr(np, "einsum", refuse)
    got = jet_compose(stack, blocks)
    lifted_blocks = space.unpack(lifted.value(z))
    for p in range(jet_order + 1):
        assert close(got[p], want[p]), p
        assert close(lifted_blocks[p], want[p]), p
