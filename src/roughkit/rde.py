"""Rough differential equations by Davie expansion.

The solver's computational core is the table of derived vector fields F_w,
built two independent ways:

* recursion: F_ε = id, F_{iw} = DF_w · f_i, realized as smooth functions
  whose mixed partials are assembled symbolically by the Leibniz rule (and
  fully symbolically when the driving fields are polynomial), and
* shuffle form: F_{w·i} = Σ_k (1/k!) Σ m·D^k f_i(F_{u_1}, …, F_{u_k}) over
  deshuffle tuples weighted by shuffle multiplicity, evaluated bottom-up.

One Davie step over a cell with increment g maps x to Σ_w F_w(x)⟨g, e_w⟩.
The solution lift stores ⟨e_w*, X_t⟩ = F_w(X_t), and the fixed-point
residual of the integral formulation can be checked a posteriori through
the rough integral.

The module also houses the Γ_w differential operators (shuffle formula and
iterated first-order composition), the Itô identity and graded Itô-Davie
defect checks, and the multivariate chain-rule entry point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import EMPTY_WORD, GroupTensor, Word, deshuffles, words_up_to
from .controlled import ControlledPath, compose, rough_integral
from .errors import NumericalFailure
from .functions import (
    PolyComponent,
    PolynomialFunction,
    SmoothFunction,
    _poly_diff,
    compose_partial,
    poly_add,
    poly_mul,
)
from .regression import SLOPE_MARGIN, OrderCheck, check_order, dyadic_pairs
from .roughpath import GeometricRoughPath


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

    def all_polynomial(self) -> bool:
        return all(isinstance(f, PolynomialFunction) for f in self.fields)


class _LeibnizDerivedField(SmoothFunction):
    """F_new = (D parent) · direction with symbolically assembled partials.

    ∂^α F_new = Σ_b Σ_{S ⊆ α} ∂^{α_S b} parent · ∂^{α\\S} direction^b; partial
    results are memoized per point since table evaluations revisit points.
    """

    def __init__(self, parent: SmoothFunction, direction: SmoothFunction):
        n = parent.n_in
        orders = []
        if parent.max_order is not None:
            orders.append(parent.max_order - 1)
        if direction.max_order is not None:
            orders.append(direction.max_order)
        super().__init__(n, n, min(orders) if orders else None)
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


class DerivedFieldTable:
    """F_w for all non-empty words up to a depth, plus F_ε = id.

    The smooth-function route (``field``) realizes the prepend recursion
    F_{iw} = DF_w·f_i; ``values_at`` evaluates the whole table at a point
    through the independent append/shuffle construction.  Immutable after
    construction and shared read-only between threads.
    """

    def __init__(self, system: VectorFieldSystem, depth: int):
        if depth < 1:
            raise ValueError("table depth must be >= 1")
        system.require_order(depth - 1, "derive_fields")
        self.system = system
        self.depth = int(depth)
        self.polynomial = system.all_polynomial()
        self._stack_cache: dict[int, "_StackedPolyJets"] = {}
        self._fields: dict[Word, SmoothFunction] = {EMPTY_WORD: PolynomialFunction.identity(system.n)}
        for w in words_up_to(system.d, depth):
            if len(w) == 0:
                continue
            if len(w) == 1:
                self._fields[w] = system.fields[w[0] - 1]
            else:
                parent = self._fields[w[1:]]
                direction = system.fields[w[0] - 1]
                if self.polynomial:
                    self._fields[w] = _poly_derived(parent, direction)
                else:
                    self._fields[w] = _LeibnizDerivedField(parent, direction)

    @property
    def words(self) -> tuple[Word, ...]:
        return words_up_to(self.system.d, self.depth)

    def field(self, w: Word) -> SmoothFunction:
        return self._fields[w]

    # -- independent evaluation route ------------------------------------------

    def values_at(self, x) -> dict[Word, np.ndarray]:
        """All F_w(x) by the append/shuffle construction (bottom-up).

        F_{w·i}(x) = Σ_k (1/k!) Σ_{(u_1..u_k)} m · D^k f_i(x)(F_{u_1}(x), …),
        with m the shuffle multiplicity.  Independent of the recursion that
        backs ``field``; the two routes agreeing is a library invariant.
        """
        x = np.asarray(x, dtype=float)
        n, d = self.system.n, self.system.d
        out: dict[Word, np.ndarray] = {EMPTY_WORD: x}
        tensors: dict[tuple[int, int], np.ndarray] = {}
        for i in range(1, d + 1):
            out[Word((i,))] = self.system.fields[i - 1].value(x)
        for length in range(2, self.depth + 1):
            for w in words_up_to(d, length):
                if len(w) != length:
                    continue
                head, last = w[:-1], w[-1]
                acc = np.zeros(n)
                for k in range(1, len(head) + 1):
                    for parts, mult in deshuffles(head, k).weights.items():
                        term = tensors.get((last, k))
                        if term is None:
                            term = self.system.fields[last - 1].deriv_tensor(x, k)
                            tensors[(last, k)] = term
                        for u in parts:
                            term = term @ out[u]
                        acc = acc + (mult / math.factorial(k)) * term
                out[w] = acc
        return out

    def recursion_values_at(self, x) -> dict[Word, np.ndarray]:
        """All F_w(x) through the smooth-function (prepend) route."""
        return {w: self._fields[w].value(np.asarray(x, dtype=float)) for w in self.words}

    # -- jet stacks -----------------------------------------------------------------

    def jet_stacks(self, x, pmax: int) -> dict[Word, list[np.ndarray]]:
        """[D^p F_w(x) for p = 0..pmax] per word, as (n,)*(p+1) arrays.

        Polynomial tables evaluate all words and derivative orders through
        one stacked coefficient matrix per multi-index (built once and
        cached); generic tables fall back to per-word oracle calls.
        """
        x = np.asarray(x, dtype=float)
        if self.polynomial:
            evaluator = self._stack_cache.get(pmax)
            if evaluator is None:
                evaluator = _StackedPolyJets(self, pmax)
                self._stack_cache[pmax] = evaluator
            return evaluator.stacks(x)
        n = self.system.n
        out: dict[Word, list[np.ndarray]] = {}
        for w in self.words:
            fn = self._fields[w]
            stack = [fn.value(x)]
            for p in range(1, pmax + 1):
                tensor = np.empty((n,) * (p + 1))
                for alpha in itertools.combinations_with_replacement(range(1, n + 1), p):
                    val = fn.partial(x, alpha)
                    for perm in set(itertools.permutations(alpha)):
                        idx = tuple(a - 1 for a in perm)
                        tensor[(slice(None),) + idx] = val
                stack.append(tensor)
            out[w] = stack
        return out


class _StackedPolyJets:
    """Jet stacks of a polynomial table through one matmul per multi-index.

    For each sorted multi-index α (order <= pmax) concatenates the derived
    polynomials ∂^α F_w of every table word into a single exponent/
    coefficient matrix, so evaluating all words at a point costs one
    monomial sweep per α.  Built once per (table, pmax) and cached.
    """

    def __init__(self, table: DerivedFieldTable, pmax: int):
        n = table.system.n
        self.n = n
        self.pmax = pmax
        self.words = table.words
        self.alphas = [
            alpha
            for p in range(pmax + 1)
            for alpha in itertools.combinations_with_replacement(range(1, n + 1), p)
        ]
        self._per_alpha: list[tuple[np.ndarray, np.ndarray]] = []
        for alpha in self.alphas:
            derived = [table.field(w).derived(alpha) for w in self.words]
            expos = sorted({e for fn in derived for comp in fn.components for e in comp})
            index = {e: i for i, e in enumerate(expos)}
            expo_matrix = np.asarray(expos, dtype=float).reshape(len(expos), n)
            coeff = np.zeros((len(expos), len(self.words) * n))
            for widx, fn in enumerate(derived):
                for c, comp in enumerate(fn.components):
                    for e, val in comp.items():
                        coeff[index[e], widx * n + c] = val
            self._per_alpha.append((expo_matrix, coeff))

    def stacks(self, x: np.ndarray) -> dict[Word, list[np.ndarray]]:
        n = self.n
        vals: dict[tuple[int, ...], np.ndarray] = {}
        for alpha, (expos, coeff) in zip(self.alphas, self._per_alpha):
            if expos.shape[0] == 0:
                vals[alpha] = np.zeros(len(self.words) * n)
            else:
                monomials = np.prod(x[None, :] ** expos, axis=1)
                vals[alpha] = monomials @ coeff
        out: dict[Word, list[np.ndarray]] = {}
        for widx, w in enumerate(self.words):
            sl = slice(widx * n, (widx + 1) * n)
            stack = [vals[()][sl]]
            for p in range(1, self.pmax + 1):
                tensor = np.empty((n,) * (p + 1))
                for alpha in itertools.combinations_with_replacement(range(1, n + 1), p):
                    val = vals[alpha][sl]
                    for perm in set(itertools.permutations(alpha)):
                        idx = tuple(a - 1 for a in perm)
                        tensor[(slice(None),) + idx] = val
                stack.append(tensor)
            out[w] = stack
        return out


def derive_fields(system: VectorFieldSystem, depth: int) -> DerivedFieldTable:
    """Build the derived-field table F_w for non-empty |w| <= depth."""
    return DerivedFieldTable(system, depth)


# ---------------------------------------------------------------------------
# Davie stepping.
# ---------------------------------------------------------------------------

def davie_step(x, table: DerivedFieldTable, g: GroupTensor, route: str = "shuffle") -> np.ndarray:
    """One local Davie update: Σ_{|w| <= N} F_w(x)⟨g, e_w⟩.

    ``route`` selects the table evaluation ("shuffle" for the bottom-up
    append form, "recursion" for the smooth-function route); both sides are
    maintained and tested as equal.
    """
    if g.level != table.depth:
        raise ValueError(
            f"increment level {g.level} does not match table depth {table.depth}"
        )
    x = np.asarray(x, dtype=float)
    values = table.values_at(x) if route == "shuffle" else table.recursion_values_at(x)
    return g.tensor.array @ np.stack([values[w] for w in words_up_to(g.dim, g.level)])


@dataclass
class RdeSolution:
    """A Davie-scheme solve plus its controlled lift and residual hook."""

    states: np.ndarray  # (len(times), n)
    times: np.ndarray
    path: ControlledPath
    table: DerivedFieldTable
    driver: GeometricRoughPath
    system: VectorFieldSystem

    def terminal(self) -> np.ndarray:
        return self.states[-1]

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
        n_gamma = self.driver.hoelder_level
        X = self.path.truncate(min(self.path.order, n_gamma))
        total = np.tile(self.states[0], (len(self.times), 1))
        for i in range(1, self.system.d + 1):
            integrand = compose(self.system.fields[i - 1], X)
            total = total + rough_integral(integrand, i, self.times).values
        return float(np.max(np.abs(total - self.states)))


def solve_rde(
    x0,
    system: VectorFieldSystem,
    driver: GeometricRoughPath,
    partition,
    table: DerivedFieldTable | None = None,
) -> RdeSolution:
    """Iterate the Davie update over a partition of [0, T].

    Uses exact driver increments per cell at the driver's own truncation
    level and emits the controlled lift with coefficients F_w(X_t) (order
    capped at N_γ+1).  Blow-up raises NumericalFailure naming the cell.
    """
    partition = np.asarray(partition, dtype=float)
    if partition.ndim != 1 or len(partition) < 1:
        raise ValueError("partition must be a non-empty 1-d time grid")
    system.require_order(driver.level, "solve_rde")
    if table is None:
        table = derive_fields(system, driver.level)
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (system.n,):
        raise ValueError(f"initial state must lie in R^{system.n}")
    states = np.empty((len(partition), system.n))
    states[0] = x
    # Divergence shows up as non-finite states; suppress the intermediate
    # overflow warnings and report the offending cell instead.
    with np.errstate(invalid="ignore", over="ignore"):
        for p in range(len(partition) - 1):
            g = driver.increment(partition[p], partition[p + 1])
            x = davie_step(x, table, g)
            if not np.isfinite(x).all():
                raise NumericalFailure(
                    f"solve_rde: state blew up on cell [{partition[p]:.6g}, "
                    f"{partition[p + 1]:.6g}] (index {p})"
                )
            states[p + 1] = x
    order = min(driver.level, driver.hoelder_level) + 1
    coeffs: dict[Word, np.ndarray] = {}
    for w in words_up_to(system.d, order - 1):
        coeffs[w] = np.empty((len(partition), system.n))
    for idx in range(len(partition)):
        vals = table.values_at(states[idx])
        for w in list(coeffs):
            coeffs[w][idx] = vals[w]
    path = ControlledPath(driver, order, system.n, partition, coeffs)
    return RdeSolution(
        states=states, times=partition, path=path, table=table, driver=driver, system=system
    )


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

        from .functions import product_partial

        total = 0.0
        for weight, beta, parts in self._terms:
            factors = [phi_factor(beta)] + [
                field_factor(u, b - 1) for u, b in zip(parts, beta)
            ]
            total += weight * product_partial(factors, x, tuple(alpha))
        return np.array([total])


class _DirectionalDerivative(SmoothFunction):
    """Γ_i φ = f_i · ∇φ as a smooth function with Leibniz partials."""

    def __init__(self, field: SmoothFunction, phi: SmoothFunction):
        if phi.n_out != 1:
            raise ValueError("Γ operators act on scalar functions")
        phi.require_order(1, "gamma composition")
        orders = []
        if phi.max_order is not None:
            orders.append(phi.max_order - 1)
        if field.max_order is not None:
            orders.append(field.max_order)
        super().__init__(phi.n_in, 1, min(orders) if orders else None)
        self.field = field
        self.phi = phi

    def value(self, x):
        x = np.asarray(x, dtype=float)
        grad = np.array([self.phi.partial(x, (b,))[0] for b in range(1, self.n_in + 1)])
        return np.array([float(self.field.value(x) @ grad)])

    def partial(self, x, alpha):
        x = np.asarray(x, dtype=float)
        alpha = tuple(alpha)
        if not alpha:
            return self.value(x)
        total = 0.0
        positions = list(range(len(alpha)))
        for b in range(1, self.n_in + 1):
            for r in range(len(alpha) + 1):
                for subset in itertools.combinations(positions, r):
                    inside = tuple(alpha[i] for i in subset)
                    outside = tuple(alpha[i] for i in positions if i not in subset)
                    fb = self.field.partial(x, outside)[b - 1]
                    if fb == 0.0:
                        continue
                    total += fb * self.phi.partial(x, inside + (b,))[0]
        return np.array([total])


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

    (a) exact identity: φ(X_t) − φ(X_0) must match Σ_i ∫ Γ_iφ(X) dW^i
    computed by rough integration on the solve grid (up to quadrature
    error); (b) graded defects: Γ_wφ(X_t) minus its Davie expansion from
    time s has order (N_γ+1−|w|)γ, estimated per word by dyadic regression
    with scale-wise mean aggregation.
    """
    driver = solution.driver
    n_gamma = driver.hoelder_level
    phi.require_order(n_gamma + 1, "ito_check")
    lifted = compose(phi, solution.path)  # ⟨e_w*, Φ(X)⟩ = Γ_wφ(X_t)
    times = solution.times

    residual = float("nan")
    if identity:
        X = solution.path.truncate(min(solution.path.order, n_gamma))
        total = np.zeros((len(times), 1))
        for i in range(1, solution.system.d + 1):
            integrand = compose(gamma_operator(Word((i,)), solution.system, phi, solution.table), X)
            total = total + rough_integral(integrand, i, times).values
        lhs = lifted.primal - lifted.primal[0]
        residual = float(np.max(np.abs(lhs - total)))

    graded: dict[Word, OrderCheck] = {}
    scales = dyadic_pairs(len(times), min_pairs=8)
    for w in words_up_to(driver.dim, n_gamma):
        spans: list[float] = []
        defects: list[float] = []
        for stride, pairs in scales:
            cell = []
            for i, j in pairs:
                inc = driver.increment(times[i], times[j])
                expansion = np.zeros(1)
                # Expansions along the flow compose the new letters
                # outermost: the ⟨W, e_v⟩ coefficient is Γ_{vw}φ.
                for v in words_up_to(driver.dim, n_gamma - len(w)):
                    c = inc.coeff(v)
                    if c != 0.0:
                        expansion = expansion + c * lifted.coeff(v + w)[i]
                cell.append(float(np.max(np.abs(lifted.coeff(w)[j] - expansion))))
            spans.append(float(np.mean([times[j] - times[i] for i, j in pairs])))
            defects.append(float(np.mean(cell)))
        graded[w] = check_order(
            name=f"ito[{','.join(map(str, w.letters)) or 'ε'}]",
            scales=spans,
            defects=defects,
            threshold=(n_gamma + 1 - len(w)) * driver.gamma,
            margin=margin,
        )
    return ItoReport(identity_residual=residual, graded=graded)


def faa_di_bruno(
    f: SmoothFunction, g: SmoothFunction, alpha: tuple[int, ...]
) -> Callable[[np.ndarray], np.ndarray]:
    """The mixed partial ∂^α(f ∘ g) as a callable field on R^{g.n_in}."""

    def field(x):
        return compose_partial(f, g, x, tuple(alpha))

    return field


def system_to_json_dict(system: VectorFieldSystem) -> dict:
    from .functions import function_to_json_dict

    return {
        "d": system.d,
        "n": system.n,
        "fields": [function_to_json_dict(f) for f in system.fields],
    }


def system_from_json_dict(data: dict) -> VectorFieldSystem:
    from .functions import function_from_json_dict

    system = VectorFieldSystem([function_from_json_dict(f) for f in data["fields"]])
    if "n" in data and system.n != int(data["n"]):
        raise ValueError(f"fields file declares n={data['n']} but functions map R^{system.n}")
    if "d" in data and system.d != int(data["d"]):
        raise ValueError(f"fields file declares d={data['d']} but lists {system.d} fields")
    return system
