"""Outside-in span tracer for the roughkit layers.

The program carries no tracing of its own, so the spans are installed from
here: each traced function is replaced by a timing wrapper in its defining
module (or on its class) and in every ``roughkit`` module that imported it
by name, so calls through ``from .x import y`` aliases are caught too.

Self time is kept on a single-threaded span stack: a span's duration minus
the time covered by the spans it encloses.  A target that no longer exists
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

# (span name, module, attribute path).  Span names are <layer>.<fn>.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("algebra.convolution", "roughkit.algebra", "convolution"),
    ("algebra.tensor_exp", "roughkit.algebra", "tensor_exp"),
    ("algebra.tensor_log", "roughkit.algebra", "tensor_log"),
    ("algebra.group_inverse", "roughkit.algebra", "group_inverse"),
    ("algebra.deshuffles", "roughkit.algebra", "deshuffles"),
    ("roughpath.lift_pl", "roughkit.roughpath", "lift_pl"),
    ("roughpath.increment", "roughkit.roughpath", "GeometricRoughPath.increment"),
    ("roughpath.basepoint_at", "roughkit.roughpath", "GeometricRoughPath.basepoint_at"),
    ("roughpath.from_json_dict", "roughkit.roughpath", "GeometricRoughPath.from_json_dict"),
    ("roughpath.to_json_dict", "roughkit.roughpath", "GeometricRoughPath.to_json_dict"),
    ("functions.deriv_tensors", "roughkit.functions", "SmoothFunction.deriv_tensors"),
    ("functions.compose_partial", "roughkit.functions", "compose_partial"),
    ("controlled.compose", "roughkit.controlled", "compose"),
    ("controlled.rough_integral", "roughkit.controlled", "rough_integral"),
    ("rde.derive_fields", "roughkit.rde", "derive_fields"),
    ("rde.values_at", "roughkit.rde", "DerivedFieldTable.values_at"),
    ("rde.jet_stacks", "roughkit.rde", "DerivedFieldTable.jet_stacks"),
    ("rde.davie_step", "roughkit.rde", "davie_step"),
    ("rde.solve_rde", "roughkit.rde", "solve_rde"),
    ("jets.solve_flow_jets", "roughkit.jets", "solve_flow_jets"),
    ("jets.jet_compose", "roughkit.jets", "jet_compose"),
    ("rpde.oracle_query", "roughkit.rpde", "FlowSolutionOracle.__call__"),
    ("rpde.push_measure", "roughkit.rpde", "push_measure"),
    ("rpde.solve_transport", "roughkit.rpde", "solve_transport"),
    ("rpde.verify_transport", "roughkit.rpde", "verify_transport"),
    ("rpde.verify_continuity", "roughkit.rpde", "verify_continuity"),
    ("regression.check_order", "roughkit.regression", "check_order"),
    ("cli.main", "roughkit.cli", "main"),
)

LAYERS = ("algebra", "roughpath", "functions", "controlled", "rde", "jets", "rpde", "regression", "cli")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span statistics plus the counters measured at the same boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.names = [name for name, _, _ in SPANS]
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._seen: dict[str, set] = defaultdict(set)  # distinct keys, per top-level span
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``; ``observe(tracer, args, kwargs)``
        records counters for the call."""
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self._seen.clear()
            if observe is not None:
                # Outside the span, and counted as covered in the caller's,
                # so that no self time includes the tracer's own counting.
                begin = clock()
                observe(self, args, kwargs)
                if stack:
                    stack[-1][1] += clock() - begin
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level_s += duration

        return traced

    def seen_before(self, kind: str, key) -> bool:
        seen = self._seen[kind]
        if key in seen:
            return True
        seen.add(key)
        return False

    # -- installation -------------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "roughkit" or n.startswith("roughkit.")]
        for name, module_name, path in SPANS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            observe = OBSERVERS.get(name)
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self.wrap(name, raw.__func__, observe))
            else:
                replacement = self.wrap(name, raw, observe)
            self._set(owner, attr, raw, replacement)
            if not isinstance(owner, type):
                for module in modules:
                    if module is not owner and module.__dict__.get(attr) is raw:
                        self._set(module, attr, raw, replacement)

    def _set(self, owner, attr: str, old, new):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------------

    def metrics(self, passes: int, wall_s: float) -> dict[str, float]:
        """Per-pass span calls and self time, counters and layer totals."""
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.split(".")[0] == layer
            ) / passes
        c = self.counts
        inc_calls = self.calls["roughpath.increment"]
        out["roughpath.increment.distinct_frac"] = _ratio(c["increment.distinct"], inc_calls)
        out["roughpath.increment.offgrid_frac"] = _ratio(c["increment.offgrid"], inc_calls)
        out["rde.values_at.points"] = c["values_at.points"] / passes
        out["rde.values_at.points_per_cell"] = _ratio(c["values_at.points"], c["solve_rde.cells"])
        out["rde.solve_rde.cells"] = c["solve_rde.cells"] / passes
        out["jets.solve_flow_jets.cells"] = c["solve_flow_jets.cells"] / passes
        out["rpde.oracle_query.hit_frac"] = _ratio(c["oracle_query.hits"], self.calls["rpde.oracle_query"])
        out["trace.wall_s"] = wall_s / passes
        # Time in no span below the CLI: cli.main's own time plus what lies
        # outside every span.
        out["trace.uncovered_frac"] = _ratio(out["cli.self_s"] * passes + wall_s - self.top_level_s, wall_s)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Counters recorded at span entry.
# ---------------------------------------------------------------------------

def _on_grid(times, t: float) -> bool:
    j = int(np.searchsorted(times, t))
    return any(0 <= i < len(times) and abs(times[i] - t) <= 1e-12 for i in (j - 1, j))


def _observe_increment(tr: Tracer, args, kwargs):
    path, s, t = args[0], float(_arg(args, kwargs, 1, "s")), float(_arg(args, kwargs, 2, "t"))
    if not tr.seen_before("increment", (id(path), s, t)):
        tr.counts["increment.distinct"] += 1
    times = getattr(path, "times", None)
    if times is not None and not (_on_grid(times, s) and _on_grid(times, t)):
        tr.counts["increment.offgrid"] += 1


def _observe_values_at(tr: Tracer, args, kwargs):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    tr.counts["values_at.points"] += x.shape[0] if x.ndim > 1 else 1


def _observe_cells(key: str) -> Callable:
    def observe(tr: Tracer, args, kwargs):
        tr.counts[key] += max(len(np.atleast_1d(_arg(args, kwargs, 3, "partition"))) - 1, 0)
    return observe


def _observe_oracle(tr: Tracer, args, kwargs):
    oracle, s, x = args[0], float(_arg(args, kwargs, 1, "s")), _arg(args, kwargs, 2, "x")
    if tr.seen_before("oracle_query", (id(oracle), s, np.asarray(x, dtype=float).tobytes())):
        tr.counts["oracle_query.hits"] += 1


OBSERVERS: dict[str, Callable] = {
    "roughpath.increment": _observe_increment,
    "rde.values_at": _observe_values_at,
    "rde.solve_rde": _observe_cells("solve_rde.cells"),
    "jets.solve_flow_jets": _observe_cells("solve_flow_jets.cells"),
    "rpde.oracle_query": _observe_oracle,
}
