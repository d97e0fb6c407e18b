"""Rough differential equations by Davie expansion.

The solver's computational core is the table of derived vector fields F_w,
built two independent ways:

* recursion: F_ε = id, F_{iw} = DF_w · f_i, realized as smooth functions
  whose mixed partials are assembled symbolically by the Leibniz rule (and
  fully symbolically when the driving fields are polynomial), and
* shuffle form: F_{w·i} = Σ_k (1/k!) Σ m·D^k f_i(F_{u_1}, …, F_{u_k}) over
  deshuffle tuples weighted by shuffle multiplicity, evaluated bottom-up.

One Davie step over a cell with increment g maps x to Σ_w F_w(x)⟨g, e_w⟩;
``_davie_steps`` is the one loop that applies it, for ``solve_rde``,
``rpde.solve_transport`` and ``jets.terminal_flow_jets``.  The solution lift
stores ⟨e_w*, X_t⟩ = F_w(X_t), and the fixed-point residual of the integral
formulation can be checked a posteriori through the rough integral.

The module also houses the Γ_w differential operators (shuffle formula and
iterated first-order composition; test references only), the Itô identity,
graded Itô-Davie defect checks and the multivariate chain-rule entry point.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import EMPTY_WORD, GroupTensor, Word, _letter_index, words_up_to
from .controlled import ControlledPath, _remainder_checks, _remainders, compose, rough_integral
from .errors import NumericalFailure
from .functions import (
    MonomialSweep,
    PolyComponent,
    PolynomialFunction,
    SmoothFunction,
    TrigPolynomial,
    _expansion_core,
    _operand,
    _poly_diff,
    _symmetric_gather,
    compose_partial,
    function_from_json_dict,
    function_to_json_dict,
    poly_add,
    poly_mul,
    product_partial,
)
from .regression import SLOPE_MARGIN, OrderCheck, dyadic_pairs, pair_arrays
from .roughpath import GeometricRoughPath
from .shuffles import deshuffles, expansion_gathers, expansion_plan


class VectorFieldSystem:
    """The driving fields f_1..f_d: smooth maps R^n → R^n with oracles."""

    def __init__(self, fields: Sequence[SmoothFunction]):
        if not fields:
            raise ValueError("need at least one vector field")
        n = fields[0].n_in
        for f in fields:
            if f.n_in != n or f.n_out != n:
                raise ValueError("vector fields must map R^n to R^n with a common n")
        self.fields = tuple(fields)
        self.n = n

    @property
    def d(self) -> int:
        return len(self.fields)

    @property
    def order(self) -> int | None:
        declared = [f.max_order for f in self.fields]
        if any(o is not None for o in declared):
            return min(o for o in declared if o is not None)
        return None

    def require_order(self, k: int, who: str):
        if self.order is not None and k > self.order:
            raise ValueError(
                f"{who} needs fields with {k} derivatives, only {self.order} declared"
            )

    @cached_property
    def stacked(self) -> tuple[SmoothFunction, ...]:
        """f_1..f_d with their outputs concatenated in letter order: one trig
        or polynomial function R^n → R^{d·n} over all components when every
        field is of that family, else the fields themselves."""
        for family in (TrigPolynomial, PolynomialFunction):
            if all(isinstance(f, family) for f in self.fields):
                return (family(self.n, [c for f in self.fields for c in f.components]),)
        return self.fields


class _LeibnizDerivedField(SmoothFunction):
    """F_new = (D parent) · direction with symbolically assembled partials:
    F_{iw} from F_w and f_i, or Γ_iφ from a scalar φ and f_i.

    ∂^α F_new = Σ_b Σ_{S ⊆ α} ∂^{α_S b} parent · ∂^{α\\S} direction^b; partial
    results are memoized per point since table evaluations revisit points.
    """

    def __init__(self, parent: SmoothFunction, direction: SmoothFunction):
        orders = []
        if parent.max_order is not None:
            orders.append(parent.max_order - 1)
        if direction.max_order is not None:
            orders.append(direction.max_order)
        super().__init__(parent.n_in, parent.n_out, min(orders) if orders else None)
        if self.max_order is not None and self.max_order < 0:
            raise ValueError("insufficient derivative order to build derived field")
        self.parent = parent
        self.direction = direction
        self._cache: dict[tuple[bytes, tuple[int, ...]], np.ndarray] = {}

    def value(self, x) -> np.ndarray:
        return self.partial(x, ())

    def partial(self, x, alpha) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        key = (x.tobytes(), tuple(sorted(alpha)))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        positions = list(range(len(alpha)))
        total = np.zeros(self.n_out)
        fi_vals: dict[tuple[int, ...], np.ndarray] = {}
        for r in range(len(alpha) + 1):
            for subset in itertools.combinations(positions, r):
                inside = tuple(alpha[i] for i in subset)
                outside = tuple(alpha[i] for i in positions if i not in subset)
                fv = fi_vals.get(outside)
                if fv is None:
                    fv = self.direction.partial(x, outside)
                    fi_vals[outside] = fv
                # b indexes the contraction slot of (D parent)·direction.
                for b in range(1, self.n_in + 1):
                    if fv[b - 1] == 0.0:
                        continue
                    total = total + self.parent.partial(x, inside + (b,)) * fv[b - 1]
        if len(self._cache) > 65536:
            self._cache.clear()
        self._cache[key] = total
        return total


def _poly_derived(parent: PolynomialFunction, direction: PolynomialFunction) -> PolynomialFunction:
    """(D parent) · direction computed exactly in polynomial arithmetic."""
    comps: list[PolyComponent] = []
    for c in range(parent.n_out):
        acc: PolyComponent = {}
        for b in range(parent.n_in):
            acc = poly_add(acc, poly_mul(_poly_diff(parent.components[c], b + 1), direction.components[b]))
        comps.append(acc)
    return PolynomialFunction(parent.n_in, comps)


class WordArrays(Mapping):
    """A read-only word-keyed view of dense arrays whose leading axis runs
    over ``words_up_to(d, depth)``: ``v[w]`` is row w of ``array``, or the
    list of row w of each array when ``array`` is a list (one per order)."""

    def __init__(self, d: int, depth: int, array: np.ndarray | list[np.ndarray]):
        self.words, self.array, self._rows = words_up_to(d, depth), array, _letter_index(d, depth)

    def __getitem__(self, w: Word):
        if not isinstance(w, Word):
            raise KeyError(w)
        i = self._rows[w.letters]
        return [a[i] for a in self.array] if isinstance(self.array, list) else self.array[i]

    def __iter__(self):
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)


class DerivedFieldTable:
    """F_w for all non-empty words up to a depth, plus F_ε = id.

    The smooth-function route (``field``) realizes the prepend recursion
    F_{iw} = DF_w·f_i, building each F_w on first use; ``values_at``
    evaluates the whole table at a point through the independent
    append/shuffle construction.  Lazy builds are idempotent: every call
    of ``field(w)`` returns the same object.
    """

    def __init__(self, system: VectorFieldSystem, depth: int):
        if depth < 1:
            raise ValueError("table depth must be >= 1")
        system.require_order(depth - 1, "derive_fields")
        self.system = system
        self.depth = int(depth)
        self.polynomial = all(isinstance(f, PolynomialFunction) for f in system.fields)
        self._stack_cache: dict[int, tuple[MonomialSweep, list[np.ndarray]]] = {}
        self._fields: dict[Word, SmoothFunction] = {EMPTY_WORD: PolynomialFunction.identity(system.n)}

    @property
    def words(self) -> tuple[Word, ...]:
        return words_up_to(self.system.d, self.depth)

    def field(self, w: Word) -> SmoothFunction:
        """F_w, built from F_{w[1:]} the first time it is asked for; KeyError
        for a word beyond the table's depth or alphabet, or a non-word."""
        if not isinstance(w, Word) or len(w) > self.depth or any(i > self.system.d for i in w.letters):
            raise KeyError(w)
        fn = self._fields.get(w)
        if fn is None:
            f_i, build = self.system.fields[w[0] - 1], _poly_derived if self.polynomial else _LeibnizDerivedField
            fn = self._fields.setdefault(w, f_i if len(w) == 1 else build(self.field(w[1:]), f_i))
        return fn

    # -- independent evaluation route ------------------------------------------

    def values_at(self, x) -> WordArrays:
        """All F_w(x) by the append/shuffle construction (bottom-up).

        F_{w·i}(x) = Σ_k (1/k!) Σ_{(u_1..u_k)} m · D^k f_i(x)(F_{u_1}(x), …),
        with m the shuffle multiplicity.  Independent of the recursion that
        backs ``field``; the two routes agreeing is a library invariant.
        ``x`` is one point (n,) or a batch (M, n), M >= 0; each value has x's shape,
        and ``array`` is (W, n) or (W, M, n).  Each ``stacked`` field part gives
        orders 0..depth−1 in one ``deriv_tensors`` call, joined into each
        order's operand once for all levels; each level is one ``_expansion_core``.
        """
        xs, single = as_batch(x, self.system.n)
        d, n, m = self.system.d, self.system.n, len(xs)
        orders = list(zip(*(f.deriv_tensors(xs, range(self.depth)) for f in self.system.stacked)))
        operands = [_operand(orders[k], m, n**k) for k in range(1, self.depth)]
        # (M, words·n): F_w(x) for the words built so far, in canonical order.
        rows = np.concatenate((xs,) + orders[0], axis=1)
        for level in range(1, self.depth):
            # Heads h of length level by field letter i: F_{h·i} in canonical order.
            gathers, weights = expansion_gathers(d, level, level, n), expansion_plan(d, level, level).weights
            block = _expansion_core(rows, gathers, weights, operands[:level])
            rows = np.concatenate([rows, block.reshape(m, block.shape[1] * d * n)], axis=1)
        vals = rows.reshape(m, rows.shape[1] // n, n)
        return WordArrays(d, self.depth, vals[0] if single else vals.swapaxes(0, 1))

    def recursion_values_at(self, x) -> WordArrays:
        """All F_w(x) through the smooth-function (prepend) route."""
        xs, single = as_batch(x, self.system.n)
        out = np.stack([self.field(w).values(xs) for w in self.words])
        return WordArrays(self.system.d, self.depth, out[:, 0] if single else out)

    # -- jet stacks -----------------------------------------------------------------

    def jet_stacks(self, x, pmax: int) -> WordArrays:
        """[D^p F_w(x) for p = 0..pmax] per word, as (n,)*(p+1) arrays, or
        (M,) + (n,)*(p+1) arrays for a batch x of shape (M, n); ``array[p]``
        holds order p for every word, (W,) + that shape, for a batch a view
        of one C-ordered (M, W, n, …) array: the per-row contraction's operand.

        A polynomial table evaluates the partials ∂^α F_w of every sorted
        multi-index α and word in one compiled monomial sweep and one matmul,
        and takes each order's block from it by one flat index; a generic
        table takes each word's orders from one ``deriv_tensors``.
        """
        n = self.system.n
        xs, single = as_batch(x, n)
        if not self.polynomial:
            jets = [self.field(w).deriv_tensors(xs, range(pmax + 1)) for w in self.words]
            rows = [np.stack(orders, axis=1) for orders in zip(*jets)]
        else:
            (sweep, takes), shape = self._jet_plan(pmax), (len(xs), len(self.words))
            vals = sweep(xs)  # (M, α·W·n)
            rows = [vals.take(flat, axis=1).reshape(shape + (n,) * (p + 1)) for p, flat in enumerate(takes)]
        return WordArrays(self.system.d, self.depth, [r[0] if single else r.swapaxes(0, 1) for r in rows])

    def _jet_plan(self, pmax: int) -> tuple[MonomialSweep, list[np.ndarray]]:
        """The sweep of all ∂^α F_w, sorted α of order <= pmax, by (α, word, component), and each order's flat
        take; built once per pmax from exponent arrays, letter by letter as ``_poly_diff`` rounds."""
        plan = self._stack_cache.get(pmax)
        if plan is None:
            n, size = self.system.n, len(self.words) * self.system.n
            comps = [comp for w in self.words for comp in self.field(w).components]
            cols = np.repeat(np.arange(size), [len(comp) for comp in comps])
            expos = np.array([e for comp in comps for e in comp], dtype=np.intp).reshape(len(cols), n)
            coeffs = np.array([v for comp in comps for v in comp.values()], dtype=float)
            orders, parts = [_symmetric_gather(n, p) for p in range(pmax + 1)], []
            for a, alpha in enumerate(alpha for order, _ in orders for alpha in order):
                e, v = expos.copy(), coeffs
                for j in (letter - 1 for letter in alpha):
                    v, e[:, j] = v * e[:, j], e[:, j] - 1
                keep = (e >= 0).all(axis=1) & (v != 0.0)  # a letter met exponent 0, or the coefficient is 0.0
                parts.append((e[keep], a * size + cols[keep], v[keep]))
            starts = np.cumsum([0] + [len(order) for order, _ in orders])
            sweep = MonomialSweep.from_terms(int(starts[-1]) * size, *map(np.concatenate, zip(*parts)))
            takes = [((idx + starts[p]) * size + np.arange(size)[:, None]).ravel() for p, (_, idx) in enumerate(orders)]
            plan = self._stack_cache[pmax] = sweep, takes
        return plan


def as_batch(x, n: int, what: str = "point") -> tuple[np.ndarray, bool]:
    """x as an (M, n) batch of points, and whether it was a single point."""
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    xs = x.reshape(1, -1) if single else x
    if xs.ndim != 2 or xs.shape[1] != n:
        raise ValueError(f"{what} must lie in R^{n} (shape ({n},) or (M, {n})), got shape {x.shape}")
    return xs, single


def derive_fields(system: VectorFieldSystem, depth: int) -> DerivedFieldTable:
    """Build the derived-field table F_w for non-empty |w| <= depth."""
    return DerivedFieldTable(system, depth)


# ---------------------------------------------------------------------------
# Davie stepping.
# ---------------------------------------------------------------------------

def davie_step(x, table: DerivedFieldTable, g: GroupTensor, route: str = "shuffle") -> np.ndarray:
    """One local Davie update: Σ_{|w| <= N} F_w(x)⟨g, e_w⟩.

    ``x`` is one state (n,) or a batch (M, n) sharing the increment g.
    ``route`` selects the table evaluation ("shuffle" for the bottom-up
    append form, "recursion" for the smooth-function route); both sides are
    maintained and tested as equal.
    """
    shape = (table.system.d, table.depth)
    if (g.dim, g.level) != shape:
        raise ValueError(f"increment (d, N) = {g.dim, g.level} does not match the table's {shape}")
    return _davie_update(table.values_at(x) if route == "shuffle" else table.recursion_values_at(x), g.tensor.array)


def _davie_update(values: WordArrays, g: np.ndarray) -> np.ndarray:
    """Σ_w ⟨g, e_w⟩ values.array[w] for a dense increment g (W,)."""
    # A C-ordered (W, M·n) matrix: BLAS sums a transposed view in another order.
    values = np.ascontiguousarray(values.array)
    return (g @ values.reshape(len(values), math.prod(values.shape[1:]))).reshape(values.shape[1:])


@dataclass
class RdeSolution:
    """A Davie-scheme solve plus its controlled lift and residual hook."""

    states: np.ndarray  # (len(times), n), or (len(times), M, n) for a batch
    times: np.ndarray
    table: DerivedFieldTable
    driver: GeometricRoughPath
    system: VectorFieldSystem

    def terminal(self) -> np.ndarray:
        return self.states[-1]

    @cached_property
    def path(self) -> ControlledPath:
        """The controlled lift with coefficients F_w(X_t) (order capped at
        N_γ+1), built on first access by one batched table evaluation."""
        if self.states.ndim != 2:
            raise ValueError("the controlled lift is defined for one trajectory, not a batch")
        order = min(self.driver.level, self.driver.hoelder_level) + 1
        words = words_up_to(self.system.d, order - 1)
        values = self.table.values_at(self.states).array[: len(words)].swapaxes(0, 1)
        return ControlledPath(self.driver, order, self.system.n, self.times, values)

    def fixed_point_residual(self) -> float:
        """A posteriori defect of the integral fixed-point form.

        Reconstructs x_0 + Σ_i ∫ f_i(X) dW^i with the rough integral of the
        composed lift and reports the largest gap to the solved trajectory.
        On the solve partition the Davie update and the compensated sums of
        the composed integrand coincide algebraically, so this residual is
        float-level for a consistent build: it guards the coefficient
        assembly (composition, deshuffle weights, integral wiring) rather
        than estimating discretization error.
        """
        X = self.path.truncate(min(self.path.order, self.driver.hoelder_level))
        fields = enumerate(self.system.fields, 1)
        total = self.states[0] + sum(rough_integral(compose(f, X), i, self.times).values for i, f in fields)
        return float(np.max(np.abs(total - self.states)))


def solve_rde(
    x0,
    system: VectorFieldSystem,
    driver: GeometricRoughPath,
    partition,
    table: DerivedFieldTable | None = None,
) -> RdeSolution:
    """Iterate the Davie update over a partition of [0, T].

    ``x0`` is one initial state (n,) or a batch (M, n); a batch is stepped
    as one array per cell against one shared increment, at the driver's own
    truncation level (``_davie_steps``).  Blow-up raises NumericalFailure
    naming the cell (and the row, for a batch).  The controlled lift is
    built lazily by ``path``.
    """
    partition = np.asarray(partition, dtype=float)
    if partition.ndim != 1 or len(partition) < 1:
        raise ValueError("partition must be a non-empty 1-d time grid")
    if driver.dim != system.d:
        raise ValueError("driver dimension must match the number of fields")
    system.require_order(driver.level, "solve_rde")
    if table is None:
        table = derive_fields(system, driver.level)
    xs, single = as_batch(x0, system.n, "initial state")
    states, slot = np.empty((len(partition),) + xs.shape), itertools.count()  # on_step fills states[0], [1], …
    _davie_steps(driver, [partition], np.zeros(len(xs), dtype=int), xs,
                 lambda rows, g: _davie_update(table.values_at(rows), g[0]),
                 lambda row, cell: f"solve_rde: state blew up on cell [{partition[cell]:.6g}, "
                                   f"{partition[cell + 1]:.6g}] (index {cell})" + ("" if single else f", row {row}"),
                 lambda rows: states.__setitem__(next(slot), rows))
    return RdeSolution(
        states=states[:, 0] if single else states, times=partition, table=table, driver=driver, system=system
    )


def _davie_steps(driver: GeometricRoughPath, partitions: Sequence[np.ndarray], owners: np.ndarray, state: np.ndarray,
                 advance: Callable, blew_up: Callable[[int, int], str], on_step: Callable = lambda state: None):
    """Davie's scheme on each row r of ``state`` (rows, width) over ``partitions[owners[r]]`` to its end; the one
    loop that steps a Davie state.  The rows move into ``_ragged_steps``' order, and each step replaces the live
    rows by ``advance(rows, g)``, g their (live, W) increments.  The first step to leave a row non-finite raises
    NumericalFailure(blew_up(row, cell)), row in the caller's order.  ``on_step`` sees the state, in the schedule's
    order, before the first step and after each one.  Returns the final state in the caller's order."""
    with np.errstate(invalid="ignore", over="ignore"):  # divergence is reported as a blow-up instead
        order, steps = _ragged_steps(driver, partitions, owners)
        state = state[order]
        on_step(state)
        for live, g, cell in steps:
            rows = advance(state[:live], g)
            if not np.isfinite(rows).all():
                bad = int(np.argmin(np.isfinite(rows).all(axis=1)))
                raise NumericalFailure(blew_up(int(order[bad]), int(cell[bad])))
            state = rows if live == len(state) else np.concatenate([rows, state[live:]])
            on_step(state)
    return state[np.argsort(order)]


def _ragged_steps(driver: GeometricRoughPath, partitions: Sequence[np.ndarray], owners: np.ndarray):
    """Row r stepped on ``partitions[owners[r]]`` to its end: the row order
    by decreasing cell count, and per step k the live rows (a prefix of that
    order: those with a k-th cell counted back from the end), their (live, W)
    increments, all from one batch, and their cells' indices.  With one
    partition, every row shares each step's increment and cell: broadcast views."""
    cells = np.array([len(p) - 1 for p in partitions], dtype=int)
    incs = driver.increments(np.concatenate([p[:-1] for p in partitions] + [[]]),  # [[]]: a batch of no cells too
                             np.concatenate([p[1:] for p in partitions] + [[]])).tensor.array
    order = np.argsort(-cells[owners], kind="stable")
    rows, counts = len(order), cells[owners[order]]
    longest = int(counts.max(initial=0))
    if len(partitions) == 1:
        shared = (longest, rows)
        return order, zip(itertools.repeat(rows), np.broadcast_to(incs[:longest, None], shared + incs.shape[1:]),
                          np.broadcast_to(np.arange(longest)[:, None], shared))
    first = (np.cumsum(cells) - cells)[owners[order]]  # each row's first cell in incs
    cell = np.arange(longest)[:, None] - (longest - counts)  # (step, row): negative before the row's first cell
    live = (cell >= 0).sum(axis=1)
    return order, ((n, incs.take(at[:n], axis=0), c[:n]) for n, at, c in zip(live, first + cell, cell))


# ---------------------------------------------------------------------------
# Γ operators.
# ---------------------------------------------------------------------------

class GammaField(SmoothFunction):
    """Γ_w φ via the shuffle formula over derived fields.

    Γ_wφ(x) = Σ_k (1/k!) Σ_{(u_1..u_k)} m · D^kφ(x)(F_{u_1}(x), …), scalar
    output.  Mixed partials come from the generalized Leibniz rule over the
    factors ∂^{β}φ and the field components, so they are exact whenever the
    underlying oracles are.
    """

    def __init__(self, w: Word, table: DerivedFieldTable, phi: SmoothFunction):
        if phi.n_out != 1:
            raise ValueError("Γ operators act on scalar functions")
        if phi.n_in != table.system.n:
            raise ValueError("state dimension mismatch")
        if len(w) > table.depth:
            raise ValueError(f"table depth {table.depth} cannot form Γ for word {w}")
        phi.require_order(len(w), "gamma_operator")
        orders = []
        if phi.max_order is not None:
            orders.append(phi.max_order - len(w))
        table_order = table.system.order
        if table_order is not None:
            orders.append(table_order - (len(w) - 1) if len(w) else table_order)
        super().__init__(phi.n_in, 1, min(orders) if orders else None)
        self.word = w
        self.table = table
        self.phi = phi
        terms: list[tuple[float, tuple[int, ...], tuple[Word, ...]]] = []
        n = phi.n_in
        for k in range(1, len(w) + 1):
            for parts, mult in deshuffles(w, k).weights.items():
                for beta in itertools.product(range(1, n + 1), repeat=k):
                    terms.append((mult / math.factorial(k), beta, parts))
        self._terms = terms

    def value(self, x) -> np.ndarray:
        return self.partial(x, ())

    def partial(self, x, alpha) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cache: dict[tuple, float] = {}

        def phi_factor(beta):
            def fac(pt, sub):
                key = ("phi", tuple(sorted(beta + sub)))
                v = cache.get(key)
                if v is None:
                    v = float(self.phi.partial(pt, beta + sub)[0])
                    cache[key] = v
                return v

            return fac

        def field_factor(u, comp):
            fn = self.table.field(u)

            def fac(pt, sub):
                key = (u.letters, comp, tuple(sorted(sub)))
                v = cache.get(key)
                if v is None:
                    v = float(fn.partial(pt, sub)[comp])
                    cache[key] = v
                return v

            return fac

        total = 0.0
        for weight, beta, parts in self._terms:
            factors = [phi_factor(beta)] + [
                field_factor(u, b - 1) for u, b in zip(parts, beta)
            ]
            total += weight * product_partial(factors, x, tuple(alpha))
        return np.array([total])


class _DirectionalDerivative(_LeibnizDerivedField):
    """Γ_i φ = Dφ · f_i: the table's Leibniz rule seeded with a scalar φ."""

    def __init__(self, field: SmoothFunction, phi: SmoothFunction):
        if phi.n_out != 1:
            raise ValueError("Γ operators act on scalar functions")
        phi.require_order(1, "gamma composition")
        super().__init__(phi, field)


def gamma_operator(
    w: Word,
    system: VectorFieldSystem,
    phi: SmoothFunction,
    table: DerivedFieldTable | None = None,
) -> SmoothFunction:
    """Γ_w φ by the shuffle formula (Γ_ε = φ).

    The independent iterated-composition construction is available as
    `gamma_by_composition` for cross-checks.
    """
    if len(w) == 0:
        return phi
    if table is None:
        table = derive_fields(system, len(w))
    return GammaField(w, table, phi)


def gamma_by_composition(w: Word, system: VectorFieldSystem, phi: SmoothFunction) -> SmoothFunction:
    """Γ_w φ = Γ_{i_1}(Γ_{i_2}(… Γ_{i_m}φ)): first-order operators applied
    right to left.  Serves as the oracle against the shuffle formula."""
    out = phi
    for letter in reversed(w.letters):
        out = _DirectionalDerivative(system.fields[letter - 1], out)
    return out


# ---------------------------------------------------------------------------
# Itô identity and graded Itô-Davie defects.
# ---------------------------------------------------------------------------

class ItoReport(NamedTuple):
    identity_residual: float
    graded: dict[Word, OrderCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.graded.values())


def ito_check(
    phi: SmoothFunction,
    solution: RdeSolution,
    margin: float = SLOPE_MARGIN,
    identity: bool = True,
) -> ItoReport:
    """Change-of-variable checks along an RDE solution.

    (a) exact identity: φ(X_t) − φ(X_0) must match Σ_i ∫ Γ_iφ(X) dW^i by
    rough integration on the solve grid (up to quadrature error), read from
    the lift's one-cell expansions; (b) graded defects: Γ_wφ(X_t) minus its
    Davie expansion from time s has order (N_γ+1−|w|)γ, estimated per word
    by dyadic regression with scale-wise mean aggregation.
    """
    phi.require_order(solution.driver.hoelder_level + 1, "ito_check")
    lift = compose(phi, solution.path)  # ⟨e_w*, Φ(X)⟩ = Γ_wφ(X_t), controlled of order N_γ+1

    # Expansions along the flow compose the new letters outermost (Γ_{vw}φ(X_s) is the ⟨W_{st}, e_v⟩
    # coefficient of Γ_wφ(X_t)), so the graded defects are the lift's controlled remainders.
    residual = float("nan")
    if identity:
        # Γ_iφ(X) has Gubinelli derivative Γ_{v·i}φ(X) at v, and u ≠ ε is one v·i: the ε
        # row less φ(X_a) is the cell's compensated sum Σ_i Σ_v Γ_{v·i}φ(X_a)⟨W_ab, e_{v·i}⟩.
        cells = np.arange(len(lift.times) - 1)
        residual = float(np.max(np.abs(np.cumsum(_remainders(lift, cells, cells + 1)[:, 0], axis=0))))
    scales = dyadic_pairs(len(lift.times), min_pairs=8)
    graded = _remainder_checks("ito", lift, *pair_arrays([pairs for _, pairs in scales]), margin)
    return ItoReport(identity_residual=residual, graded=graded)


def faa_di_bruno(
    f: SmoothFunction, g: SmoothFunction, alpha: tuple[int, ...]
) -> Callable[[np.ndarray], np.ndarray]:
    """The mixed partial ∂^α(f ∘ g) as a callable field on R^{g.n_in}."""

    def field(x):
        return compose_partial(f, g, x, tuple(alpha))

    return field


def system_to_json_dict(system: VectorFieldSystem) -> dict:
    return {
        "d": system.d,
        "n": system.n,
        "fields": [function_to_json_dict(f) for f in system.fields],
    }


def system_from_json_dict(data: dict) -> VectorFieldSystem:
    system = VectorFieldSystem([function_from_json_dict(f) for f in data["fields"]])
    if "n" in data and system.n != int(data["n"]):
        raise ValueError(f"fields file declares n={data['n']} but functions map R^{system.n}")
    if "d" in data and system.d != int(data["d"]):
        raise ValueError(f"fields file declares d={data['d']} but lists {system.d} fields")
    return system
