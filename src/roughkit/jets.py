"""Flow derivatives through the extended jet space.

The flow x ↦ X^{s,x}_t is differentiated by evolving the state together
with its jets: the state space R^n is extended to

    S = R^n ⊕ L(R^n, R^n) ⊕ … ⊕ L((R^n)^{⊗k}, R^n)

and each driving field f is lifted to S so that the p-th component of the
lift at (x, y_1, …, y_k) is the partition sum

    Σ_{π ∈ P(p)} D^{#π} f(x)(y_{|B_1|}·, …, y_{|B_q|}·),

i.e. exactly the p-th derivative of f composed with a map whose jets are
the y's.  For a symmetric D^q f this partition sum is the deshuffle sum
Σ_k (1/k!) Σ m·D^k f(V_{u_1}, …, V_{u_k}): one graded expansion through
``functions._expansion_core``, the kernel that also builds the derived
fields.  With the canonical initial data (x, I, 0, …, 0) the solution
carries D^p X^{s,x}_t in its p-th block.  Two stepping routes are tested
equal: "extended" Davie-steps the lifted fields in S; "composed" chains the
Davie map's local jets Σ_w D^pF_w(x)⟨g, e_w⟩ onto the jets by that
expansion, read straight from the columns of one packed (rows, dim) state
in ``JetSpace.pack`` layout: the same update, much cheaper.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .algebra import GroupTensor, words_up_to
from .functions import SmoothFunction, _expansion_core, _operand
from .rde import DerivedFieldTable, VectorFieldSystem, _davie_steps, as_batch, derive_fields, solve_rde
from .regression import OrderCheck, order_checks
from .roughpath import GeometricRoughPath
from .shuffles import expansion_gathers, expansion_plan


@lru_cache(maxsize=None)
def set_partitions(p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of {0..p-1} into non-empty blocks (sorted tuples)."""
    if p == 0:
        return ((),)
    out = []
    for smaller in set_partitions(p - 1):
        elem = p - 1
        out.append(tuple(sorted(smaller + ((elem,),))))
        for j in range(len(smaller)):
            grown = smaller[:j] + (tuple(sorted(smaller[j] + (elem,))),) + smaller[j + 1:]
            out.append(tuple(sorted(grown)))
    return tuple(dict.fromkeys(out))


class JetSpace:
    """Layout of the extended space: block p holds a (n,)*(p+1) tensor."""

    def __init__(self, n: int, jet_order: int):
        if jet_order < 1:
            raise ValueError("jet order must be >= 1")
        self.n = int(n)
        self.jet_order = int(jet_order)
        self.block_shapes = [(n,) * (p + 1) for p in range(jet_order + 1)]
        sizes = [int(np.prod(s)) for s in self.block_shapes]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.dim = int(self.offsets[-1])

    def pack(self, blocks: list[np.ndarray]) -> np.ndarray:
        """Flatten blocks into one vector, or one row per point when the
        blocks carry a leading batch axis."""
        batch, sizes = np.shape(blocks[0])[:-1], np.diff(self.offsets).tolist()
        flat = [np.asarray(b, dtype=float).reshape(batch + (k,)) for b, k in zip(blocks, sizes)]
        return np.concatenate(flat, axis=-1)

    def unpack(self, z: np.ndarray) -> list[np.ndarray]:
        z = np.asarray(z, dtype=float)
        return [
            z[..., self.offsets[p]: self.offsets[p + 1]].reshape(z.shape[:-1] + self.block_shapes[p])
            for p in range(self.jet_order + 1)
        ]

    def canonical_state(self, x) -> np.ndarray:
        """(x, I, 0, …, 0): the flow-derivative initial condition, per row
        for a batch x of shape (M, n)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        state = np.zeros(x.shape[:-1] + (self.dim,))
        state[..., : self.n], state[..., self.n : self.offsets[2]] = x, np.eye(self.n).ravel()
        return state

    def coordinate(self, flat_index: int) -> tuple[int, tuple[int, ...]]:
        """Map a flattened coordinate to (block, entry multi-index)."""
        p = int(np.searchsorted(self.offsets, flat_index, side="right") - 1)
        local = flat_index - self.offsets[p]
        return p, tuple(int(i) for i in np.unravel_index(local, self.block_shapes[p]))


@lru_cache(maxsize=None)
def _packed_plan(n: int, jet_order: int) -> tuple[tuple, np.ndarray | None, np.ndarray]:
    """``expansion_plan(n, 1, jet_order)`` on ``JetSpace.pack`` rows: its gathers composed with that layout (values
    entry u·n + c is entry [c, u] of block |u|), its weights, and the take from (targets, n) back to blocks 1..p."""
    space = JetSpace(n, jet_order)
    packed = np.concatenate([b.reshape(n, -1).T.ravel() for b in space.unpack(np.arange(space.dim))]).astype(np.intp)
    gathers = tuple(tuple(packed[slot] for slot in arity) for arity in expansion_gathers(n, 1, jet_order, n))
    return gathers, expansion_plan(n, 1, jet_order).weights, np.argsort(packed)[n:] - n


def jet_compose(outer_stack: list[np.ndarray], inner_blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Chain jets: blocks of (outer ∘ inner) up to the inner jet order.

    outer_stack[k] (batch + (width,) + (n,)*k) is D^k of the outer map at
    the inner base point and must be symmetric in its argument slots;
    inner_blocks[p] (batch + (n,)*(p+1)) is inner's p-th jet, block 0 its
    base point.  Block p at a level-p word w over {1..n} is the deshuffle
    sum Σ_k (1/k!) Σ m·D^k outer(V_{u_1}, …, V_{u_k}) with V_u the entries
    [..., :, u−1] of inner_blocks[|u|] (not necessarily symmetric): one
    graded expansion (``_packed_plan``) on the packed inner blocks for all w.
    Leading batch axes, shared by all operands, are carried through.
    """
    jet_order = len(inner_blocks) - 1
    if jet_order == 0:
        return [outer_stack[0]]
    batch, n = np.shape(inner_blocks[0])[:-1], np.shape(inner_blocks[0])[-1]
    m, width = math.prod(batch), np.shape(outer_stack[0])[-1]
    packed = np.concatenate([np.reshape(b, (m, n ** (p + 1))) for p, b in enumerate(inner_blocks)], axis=1)
    gathers, weights, _ = _packed_plan(n, jet_order)
    operands = [_operand([np.reshape(outer_stack[k], (m, width, n**k))], m, n**k) for k in range(1, jet_order + 1)]
    out = _expansion_core(packed, gathers, weights, operands).swapaxes(1, 2)
    ends = np.cumsum([n**p for p in range(jet_order + 1)]) - 1
    return [outer_stack[0]] + [out[:, :, ends[p - 1]: ends[p]].reshape(batch + (width,) + (n,) * p)
                               for p in range(1, jet_order + 1)]


def jet_apply(outer_stack: list[np.ndarray], inner_blocks: list[np.ndarray], p: int) -> np.ndarray:
    """p-th jet of outer ∘ inner: block p of ``jet_compose`` (order 0 is
    outer_stack[0])."""
    return jet_compose(outer_stack, inner_blocks[: p + 1])[p]


class JetVectorField(SmoothFunction):
    """The lift of a driving field to the jet space, with partial oracle.

    The value is the partition sum above.  Mixed partials with respect to
    flattened coordinates are computed term by term: x-letters deepen the
    derivative of f, y-letters consume matching linear factor slots
    (injectively, since each term is multilinear in the blocks).  Entries
    are evaluated by explicit small loops; this engine is meant for the
    moderate dimensions of flow-derivative runs.
    """

    def __init__(self, field: SmoothFunction, space: JetSpace):
        if field.n_in != field.n_out or field.n_in != space.n:
            raise ValueError("lift needs a vector field on the jet space's base")
        max_order = None
        if field.max_order is not None:
            max_order = max(field.max_order - space.jet_order, 0)
        super().__init__(space.dim, space.dim, max_order)
        self.field = field
        self.space = space

    def value(self, z) -> np.ndarray:
        blocks = self.space.unpack(z)
        stack = [t[0] for t in self.field.deriv_tensors(blocks[0][None], range(self.space.jet_order + 1))]
        return self.space.pack(jet_compose(stack, blocks))

    def partial(self, z, alpha) -> np.ndarray:
        alpha = tuple(alpha)
        if not alpha:
            return self.value(z)
        if self.field.max_order is not None:
            needed = self.space.jet_order + len(alpha)
            if needed > self.field.max_order:
                raise ValueError(
                    f"jet lift partial needs base-field order {needed}, "
                    f"only {self.field.max_order} declared"
                )
        space = self.space
        blocks = space.unpack(z)
        x = blocks[0]
        n = space.n
        x_letters: list[int] = []
        y_letters: list[tuple[int, tuple[int, ...]]] = []
        for a in alpha:
            block, entry = space.coordinate(a - 1)
            if block == 0:
                x_letters.append(entry[0] + 1)
            else:
                y_letters.append((block, entry))
        beta = tuple(x_letters)
        out_blocks = [np.zeros(shape) for shape in space.block_shapes]

        # Block 0 is f(x): only pure x-derivatives survive.
        if not y_letters:
            out_blocks[0] = self.field.partial(x, beta)

        fcache: dict[tuple[int, ...], np.ndarray] = {}

        def f_partial(word: tuple[int, ...]) -> np.ndarray:
            key = tuple(sorted(word))
            hit = fcache.get(key)
            if hit is None:
                hit = self.field.partial(x, key)
                fcache[key] = hit
            return hit

        r = len(y_letters)
        for p in range(1, space.jet_order + 1):
            target = out_blocks[p]
            for partition in set_partitions(p):
                q = len(partition)
                block_sizes = [len(b) for b in partition]
                # Assign each y-letter to a factor slot of matching size.
                slot_pools = []
                for (lblk, _entry) in y_letters:
                    slot_pools.append([j for j, size in enumerate(block_sizes) if size == lblk])
                for assignment in itertools.product(*slot_pools):
                    if len(set(assignment)) != r:
                        continue
                    assigned = {j: y_letters[s][1] for s, j in enumerate(assignment)}
                    free = [j for j in range(q) if j not in assigned]
                    # Entry loop over the output tensor.
                    for c in range(n):
                        for a_vec in itertools.product(range(n), repeat=p):
                            ok = True
                            # Output index must match the fixed argument
                            # positions of every assigned slot.
                            for j, entry in assigned.items():
                                positions = partition[j]
                                if tuple(a_vec[pos] for pos in positions) != entry[1:]:
                                    ok = False
                                    break
                            if not ok:
                                continue
                            total = 0.0
                            for b_free in itertools.product(range(n), repeat=len(free)):
                                b_vec = [0] * q
                                for j, entry in assigned.items():
                                    b_vec[j] = entry[0]
                                for j, b in zip(free, b_free):
                                    b_vec[j] = b
                                fval = f_partial(beta + tuple(b + 1 for b in b_vec))[c]
                                if fval == 0.0:
                                    continue
                                prod = fval
                                for j in free:
                                    positions = partition[j]
                                    y = blocks[len(positions)]
                                    prod *= y[(b_vec[j],) + tuple(a_vec[pos] for pos in positions)]
                                total += prod
                            target[(c,) + a_vec] += total
        return self.space.pack(out_blocks)


def lift_system(system: VectorFieldSystem, jet_order: int) -> tuple[VectorFieldSystem, JetSpace]:
    """Lift every driving field to the jet space of the given order."""
    space = JetSpace(system.n, jet_order)
    lifted = VectorFieldSystem([JetVectorField(f, space) for f in system.fields])
    return lifted, space


@dataclass
class FlowJetPath:
    """Jets of the flow along a solve: blocks[p][t] ≈ D^p X^{s,x}_t.

    For a batch of M initial points every block carries an extra axis
    after the time axis: blocks[p][t, m] belongs to the m-th point.
    """

    space: JetSpace
    times: np.ndarray
    blocks: list[np.ndarray]  # blocks[p]: (len(times),) [+ (M,)] + (n,)*(p+1)

    @property
    def states(self) -> np.ndarray:
        return self.blocks[0]

    def jet(self, p: int, index: int = -1) -> np.ndarray:
        return self.blocks[p][index]

    def derivative(self, alpha: tuple[int, ...], index: int = -1) -> np.ndarray:
        """∂^α X at a time index, as a vector in R^n (one row per point for
        a batch)."""
        p = len(alpha)
        idx = (index, Ellipsis, slice(None)) + tuple(a - 1 for a in alpha)
        return self.blocks[p][idx]


def terminal_flow_jets(
    x0,
    system: VectorFieldSystem,
    driver: GeometricRoughPath,
    partitions: Sequence[np.ndarray],
    jet_order: int,
    table: DerivedFieldTable | None = None,
    on_step: Callable[[list[np.ndarray]], None] | None = None,
) -> list[np.ndarray]:
    """Jets D^p X^{s_j, x_m}_{T_j} from each partition's start s_j to its
    own end T_j, for every point x_m of ``x0`` (M, n): blocks[p] of shape
    (S, M) + (n,)*(p+1).

    All S·M characteristics are composed-jet stepped as one batch by
    ``rde._davie_steps``, each on its own partition (their ends may differ).
    The jets are one packed (S·M, dim) state whose views are the blocks, and
    each cell's Davie jets are chained through its own columns
    (``_packed_plan``).  ``on_step`` sees the current jets, the only ones
    kept, in the stepper's row order before the first step and after each.
    """
    if driver.dim != system.d:
        raise ValueError("driver dimension must match the number of fields")
    xs, _ = as_batch(x0, system.n)
    if table is None:
        table = derive_fields(system, driver.level)
    m, n, space = len(xs), system.n, JetSpace(system.n, jet_order)
    gathers, weights, back = _packed_plan(n, jet_order)

    def advance(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
        stacks = table.jet_stacks(rows[:, :n], jet_order).array
        davie = [np.einsum("aw,aw...->a...", g, b.swapaxes(0, 1)) for b in stacks]
        operands = [_operand([b], len(rows), n**k) for k, b in enumerate(davie[1:], 1)]
        chained = _expansion_core(rows, gathers, weights, operands)
        return np.concatenate([davie[0], chained.reshape(len(rows), chained.shape[1] * n).take(back, axis=1)], axis=1)

    def blew_up(row: int, cell: int) -> str:
        start = "" if len(partitions) == 1 else f" from s={partitions[row // m][0]:.6g}"
        return f"solve_flow_jets: blow-up on cell index {cell}{start}" + ("" if m == 1 else f", row {row % m}")

    owners, state = np.repeat(np.arange(len(partitions)), m), space.canonical_state(np.tile(xs, (len(partitions), 1)))
    final = _davie_steps(driver, partitions, owners, state, advance, blew_up,
                         lambda rows: on_step and on_step(space.unpack(rows)))
    return [b.reshape((len(partitions), m) + b.shape[1:]) for b in space.unpack(final)]


def solve_flow_jets(
    x0,
    system: VectorFieldSystem,
    driver: GeometricRoughPath,
    partition,
    jet_order: int,
    method: str = "composed",
    table: DerivedFieldTable | None = None,
) -> FlowJetPath:
    """Evolve the flow and its derivatives up to ``jet_order``.

    ``x0`` is one point (n,) or a batch (M, n) stepped together, one array
    operation per cell.  method="extended" builds the lifted fields,
    derives their field table and Davie-steps the single autonomous system
    in the jet space with canonical initial data.  method="composed" forms
    each cell's local Davie-map jets from the base-space table and chains
    them (the one-start case of ``terminal_flow_jets``); the two routes
    agree (tested) and the latter scales to repeated queries.  Blow-up
    raises NumericalFailure naming the cell (and the row, for a batch).
    """
    partition = np.asarray(partition, dtype=float)
    xs, single = as_batch(x0, system.n)
    if method == "extended":
        lifted, lspace = lift_system(system, jet_order)
        ltable = derive_fields(lifted, driver.level) if table is None else table
        states = solve_rde(lspace.canonical_state(xs), lifted, driver, partition, table=ltable).states
        blocks = lspace.unpack(states[:, 0] if single else states)
        return FlowJetPath(space=lspace, times=partition, blocks=blocks)
    if method != "composed":
        raise ValueError(f"unknown jet method {method!r}")
    trajectory = []
    terminal_flow_jets(
        xs, system, driver, [partition], jet_order, table,
        on_step=lambda jets: trajectory.append([b.copy() for b in jets]),
    )
    blocks = [np.stack([jets[p] for jets in trajectory]) for p in range(jet_order + 1)]
    if single:
        blocks = [b[:, 0] for b in blocks]
    return FlowJetPath(space=JetSpace(system.n, jet_order), times=partition, blocks=blocks)


def partial_davie_expansion(
    table: DerivedFieldTable, x, g: GroupTensor, alpha: tuple[int, ...]
) -> np.ndarray:
    """One-shot expansion Σ_{|w| <= N} ∂^α F_w(x)⟨g, e_w⟩."""
    x = np.asarray(x, dtype=float)
    partials = [table.field(w).partial(x, tuple(alpha)) for w in words_up_to(g.dim, g.level)]
    return g.tensor.array @ np.asarray(partials, dtype=float)


def partial_davie_check(
    x0,
    system: VectorFieldSystem,
    driver: GeometricRoughPath,
    alphas: Sequence[tuple[int, ...]],
    n_spans: int = 8,
    substeps: int = 32,
    anchors: int = 6,
    margin: float = 0.15,
) -> dict[tuple[int, ...], OrderCheck]:
    """Order check of the flow-derivative Davie expansion.

    For dyadically shrinking spans and several window anchors [s, s+span],
    compares the solved flow derivative ∂^α X^{s,x}_{s+span} (jets
    integrated with ``substeps`` cells per window, every window a row of
    one ``terminal_flow_jets`` batch) against the one-shot expansion
    Σ ∂^αF_w(x)⟨W_{s,s+span}, e_w⟩, aggregates scale-wise means, and
    regresses the gap; each α passes iff the slope reaches (N_γ+1)γ − margin.
    """
    alphas = [tuple(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one derivative word")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    table = derive_fields(system, driver.level)
    spans = driver.horizon * 0.5 ** np.arange(n_spans)
    starts = [np.linspace(0.0, spans[0] - span, anchors) if span < spans[0] else np.zeros(1) for span in spans]
    scale_ids = np.repeat(np.arange(n_spans), [len(s) for s in starts])
    lefts = np.concatenate(starts)
    rights = lefts + spans[scale_ids]
    partitions = [np.linspace(s, t, substeps + 1) for s, t in zip(lefts, rights)]
    jets = terminal_flow_jets(x0, system, driver, partitions, max(len(a) for a in alphas), table)
    g = driver.increments(lefts, rights)
    solved = np.stack([jets[len(a)][(slice(None), 0, Ellipsis) + tuple(k - 1 for k in a)] for a in alphas], axis=1)
    expanded = np.stack([partial_davie_expansion(table, x0, g, a) for a in alphas], axis=1)
    defects = np.abs(solved - expanded).max(axis=2)
    threshold = (driver.hoelder_level + 1) * driver.gamma
    return order_checks(
        "flow-derivative", alphas, defects, spans[scale_ids], scale_ids, [threshold] * len(alphas), margin,
    )
