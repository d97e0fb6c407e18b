"""The handlers and loaders of every command except ``sig``, which
``cli.main`` imports on their first call.  A loader names its file in the
``ValueError`` of a malformed input; a handler returns the exit code.
"""

from __future__ import annotations

import json
import math
from typing import Callable

import numpy as np

from . import __version__
from .roughpath import GeometricRoughPath, PiecewiseLinearPath, _check_size, _read_csv, _word_count, _write_text
from .roughpath import parse_csv, solve_partition


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: malformed JSON at line {e.lineno}, column {e.colno}") from e

def _load_json(path: str, what: str, build: Callable):
    """``build`` applied to the JSON in ``path``; a document of the wrong
    structure or with invalid values is an input error naming the file."""
    data = _read_json(path)
    try:
        return build(data)
    except (TypeError, AttributeError, KeyError, IndexError, OverflowError, ValueError) as e:
        raise ValueError(f"{path}: not a valid {what} JSON ({type(e).__name__}: {e})") from e


def _load_driver(path: str) -> GeometricRoughPath:
    return _load_json(path, "rough-path", GeometricRoughPath.from_json_dict)


def _load_fields(path: str) -> VectorFieldSystem:
    from .rde import system_from_json_dict

    return _load_json(path, "fields", system_from_json_dict)


def _load_phis(path: str) -> list[SmoothFunction]:
    from .functions import function_from_json_dict

    return _load_json(path, "phis", lambda data: [function_from_json_dict(d) for d in data["phis"]])


def _parse_x0(text: str) -> np.ndarray:
    try:
        x0 = np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as e:
        raise ValueError(f"could not parse --x0 {text!r}: {e}") from e
    if not np.isfinite(x0).all():
        raise ValueError(f"--x0 must be finite, got {text!r}")
    return x0


def _parse_grid(spec: str) -> list[np.ndarray]:
    """Parse 'lo:hi:count,lo:hi:count' into the product grid point list."""
    axes = []
    for part in spec.split(","):
        pieces = part.split(":")
        try:
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
            if len(pieces) != 3 or not (math.isfinite(lo) and math.isfinite(hi) and count >= 1):
                raise ValueError
        except (ValueError, IndexError):
            raise ValueError(f"bad --space-grid component {part!r}, want lo:hi:count, finite, count >= 1") from None
        axes.append((lo, hi, count))
    _check_size(f"--space-grid {spec}", math.prod(count for _, _, count in axes), "points")
    mesh = np.meshgrid(*(np.linspace(*axis) for axis in axes), indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    return [points[i] for i in range(points.shape[0])]


def _load_measure(path: str) -> ParticleMeasure:
    from .rpde import ParticleMeasure

    _, rows = _read_csv(path, lambda text: parse_csv(text, "w"))
    if not len(rows):
        raise ValueError(f"{path}: no particles")
    return ParticleMeasure(points=rows[:, 1:], weights=rows[:, 0])


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _cmd_rde(args) -> int:
    from .rde import solve_rde

    driver = _load_driver(args.driver)
    system = _load_fields(args.fields)
    x0 = _parse_x0(args.x0)
    partition = solve_partition(driver, 0.0, driver.horizon, args.mesh)
    solution = solve_rde(x0, system, driver, partition)
    _write_text(args.out, PiecewiseLinearPath(solution.times, solution.states).to_csv())
    residual = solution.fixed_point_residual() if args.residual else None
    message = f"rde: solved {len(partition) - 1} cells to {args.out}"
    if residual is not None:
        message += f" (fixed-point residual {residual:.3e})"
    print(message)
    return 0


def _build_problem(args) -> TransportProblem:
    from .functions import function_from_json_dict
    from .rpde import TransportProblem

    driver = _load_driver(args.driver)
    system = _load_fields(args.fields)
    terminal = _load_json(args.terminal, "function", function_from_json_dict)
    return TransportProblem(fields=system, terminal=terminal, driver=driver)


def _cmd_transport(args) -> int:
    from .rpde import solve_transport

    problem = _build_problem(args)
    header, rows = _read_csv(args.query, lambda text: parse_csv(text, "s"))
    queries = [(float(r[0]), r[1:]) for r in rows]
    values = solve_transport(problem, queries, mesh=args.mesh)
    out_lines = [",".join(header + ["u"])]
    for r, u in zip(rows, values):
        out_lines.append(",".join([repr(float(v)) for v in r] + [repr(float(u))]))
    _write_text(args.out, "\n".join(out_lines) + "\n")
    print(f"transport: wrote {len(values)} values to {args.out}")
    return 0


def _cmd_continuity(args) -> int:
    from .rpde import solve_continuity

    driver = _load_driver(args.driver)
    system = _load_fields(args.fields)
    mu = _load_measure(args.mu)
    phis = _load_phis(args.phis)
    values = solve_continuity(system, driver, mu, args.time, phis, mesh=args.mesh)
    lines = ["phi,value"] + [f"{i},{repr(float(v))}" for i, v in enumerate(values)]
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"continuity: wrote {len(phis)} pairings to {args.out}")
    return 0


def _config_hash(payload: dict) -> str:
    import hashlib

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _report_payload(args, command: str, checks: list[dict], passed: bool) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    return {
        "tool": "roughkit",
        "version": __version__,
        "command": command,
        "config": config,
        "config_hash": _config_hash(config),
        "seed": getattr(args, "seed", None),
        "checks": checks,
        "passed": passed,
    }


def _cmd_verify(args) -> int:
    from .rpde import FlowSolutionOracle, duality_check, push_measure, verify_continuity, verify_transport

    _check_size(f"--time-points {args.time_points}", args.time_points, "points")
    if args.target == "transport":
        problem = _build_problem(args)
        d, level = problem.driver.dim, args.solve_level or 0
        _check_size(f"--solve-level {level} over d = {d} letters", _word_count(d, level), "words")
        oracle = FlowSolutionOracle(problem, mesh=args.mesh, solve_level=args.solve_level)
        grid = _parse_grid(args.space_grid)
        time_grid = np.linspace(0.0, problem.horizon, args.time_points)
        report = verify_transport(problem, oracle, grid, time_grid, anchors_per_scale=args.anchors)
    elif args.target == "continuity":
        driver = _load_driver(args.driver)
        system = _load_fields(args.fields)
        mu = _load_measure(args.mu)
        phis = _load_phis(args.phis)
        time_grid = np.linspace(0.0, driver.horizon, args.time_points)
        evolution = push_measure(system, driver, mu, time_grid, mesh=args.mesh)
        report = verify_continuity(system, driver, evolution, phis, time_grid,
                                   anchors_per_scale=args.anchors)
    elif args.target == "duality":
        problem = _build_problem(args)
        mu = _load_measure(args.mu)
        grid = np.linspace(0.0, problem.horizon, args.time_points)
        result = duality_check(problem, mu, grid, mesh=args.mesh)
        tol = args.duality_tol
        checks = [{
            "name": "duality-constancy",
            "max_drift": result.max_drift,
            "tolerance": tol,
            "passed": result.max_drift <= tol,
            "alphas": [float(a) for a in result.alphas],
        }]
        passed = result.max_drift <= tol
    else:
        raise ValueError(f"unknown verify target {args.target!r}")
    if args.target != "duality":
        checks = [c.to_json_dict() for _, c in sorted(report.checks.items(), key=lambda kv: kv[0].sort_key())]
        passed = report.passed
    payload = _report_payload(args, f"verify {args.target}", checks, passed)
    _write_text(args.report, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"verify {args.target}: {'PASS' if passed else 'FAIL'} -> {args.report}")
    return 0 if passed else 1


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(
        gamma=args.gamma,
        fast=args.fast,
        progress=print,
        only=args.only.split(",") if args.only else None,
    )
    passed = all(r.passed for r in results)
    if args.report:
        checks = [
            {"criterion": r.criterion, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        payload = _report_payload(args, "selftest", checks, passed)
        _write_text(args.report, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"selftest: {sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if passed else 1
