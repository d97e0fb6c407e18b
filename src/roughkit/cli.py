"""Batch entry points: lifting, solving, verifying, self-testing.

Commands
--------
sig         lift a path CSV (or a sampled fBm) to a rough-path JSON
rde         solve an RDE from a driver JSON and a fields JSON
transport   evaluate the rough transport solution at query points
continuity  push a particle measure and evaluate test functions
verify      run a graded verifier (transport | continuity | duality)
selftest    run the acceptance battery and write a consolidated report

Exit codes: 0 success, 1 verification failure, 2 input error, 3 numerical
failure.  All randomness flows through --seed; identical config and seed
produce byte-identical artifacts (reports embed a hash of their config and
never embed wall-clock data).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from typing import Callable

import numpy as np

from . import __version__
from .errors import NumericalFailure
from .roughpath import GeometricRoughPath, PiecewiseLinearPath, lift_pl, parse_csv, sample_fbm, solve_partition


def _config_hash(payload: dict) -> str:
    import hashlib

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: malformed JSON at line {e.lineno}, column {e.colno}") from e


def _read_csv(path: str, parse: Callable):
    """``parse`` of the text of a CSV file, its errors naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


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
        axes.append(np.linspace(lo, hi, count))
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    return [points[i] for i in range(points.shape[0])]


def _positive(kind: type) -> Callable[[str], float | int]:
    """argparse type: a finite number > 0 of the given kind."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {kind.__name__}: {text!r}") from None
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
        return value

    return parse


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _cmd_sig(args) -> int:
    if args.path is None and args.fbm_hurst is None:
        raise ValueError("sig needs --path or --fbm-hurst")
    if args.path is not None:
        path = _read_csv(args.path, PiecewiseLinearPath.from_csv)
    else:
        path = sample_fbm(
            H=args.fbm_hurst, d=args.fbm_dim, knots=args.fbm_knots,
            seed=args.seed, horizon=args.horizon,
        )
    with np.errstate(over="ignore", invalid="ignore"):  # to_json names a knot that overflowed
        rough = lift_pl(path, gamma=args.gamma, level=args.level)
    _write_text(args.out, rough.to_json() + "\n")
    print(f"sig: wrote level-{rough.level} lift of {len(path.times)} knots to {args.out}")
    return 0


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


def _load_measure(path: str) -> ParticleMeasure:
    from .rpde import ParticleMeasure

    _, rows = _read_csv(path, lambda text: parse_csv(text, "w"))
    if not len(rows):
        raise ValueError(f"{path}: no particles")
    return ParticleMeasure(points=rows[:, 1:], weights=rows[:, 0])


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


def _report_payload(args, command: str, checks: list[dict], passed: bool) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
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

    if args.target == "transport":
        problem = _build_problem(args)
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


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

_SCHEMAS = """\
wire formats
------------
path CSV        header `t,x1,...,xd`, one knot per row
rough-path JSON {"gamma": float, "level": int, "times": [...],
                 "basepoints": [{"d": int, "level": int,
                                 "terms": [{"word": [int,...], "value": float}, ...]}, ...]}
fields JSON     {"n": int, "d": int, "fields": [function, ...]}
function JSON   {"family": "polynomial", "n_in": int,
                 "components": [[{"exponents": [int,...], "coeff": float}, ...], ...]}
                | {"family": "trig", "n_in": int,
                   "components": [[{"amp": f, "wave": [f,...], "phase": f}, ...], ...]}
                | {"family": "affine", "matrix": [[f,...],...], "offset": [f,...]}
                | {"family": "named", "name": "zero"|"identity", "n": int}
phis JSON       {"phis": [function, ...]}
query CSV       header `s,x1,...,xn`
particles CSV   header `w,x1,...,xn` (weights first)
report JSON     {"config", "config_hash", "checks": [...], "passed"}
"""


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (ROUGHKIT_THREADS read then)."""
    parser = argparse.ArgumentParser(
        prog="roughkit",
        description=__doc__,
        epilog=_SCHEMAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"roughkit {__version__}")
    default_threads = int(os.environ.get("ROUGHKIT_THREADS", "1"))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mesh_default=1e-3):
        p.add_argument("--mesh", type=_positive(float), default=mesh_default, help="solver mesh size")
        p.add_argument("--seed", type=int, default=0, help="seed for any sampling")
        p.add_argument("--threads", type=int, default=default_threads,
                       help="accepted and recorded in reports, but has no effect: the work "
                            "is batched, not threaded (default from ROUGHKIT_THREADS)")

    p = sub.add_parser("sig", help="lift a path CSV (t,x1,...,xd) to a rough-path JSON")
    p.add_argument("--path", help="piecewise-linear path CSV")
    p.add_argument("--gamma", type=float, required=True, help="Hölder exponent in (0,1]")
    p.add_argument("--level", type=int, default=None, help="truncation level (default ⌊1/γ⌋)")
    p.add_argument("--fbm-hurst", type=float, default=None, help="sample an fBm driver instead of --path")
    p.add_argument("--fbm-dim", type=int, default=2)
    p.add_argument("--fbm-knots", type=int, default=129)
    p.add_argument("--horizon", type=_positive(float), default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sig)

    p = sub.add_parser("rde", help="solve an RDE along a driver")
    p.add_argument("--driver", required=True, help="rough-path JSON from `sig`")
    p.add_argument("--fields", required=True, help="vector-fields JSON")
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.add_argument("--residual", action="store_true", help="report the fixed-point residual")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_rde)

    p = sub.add_parser("transport", help="solve the rough transport equation at queries")
    p.add_argument("--driver", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--terminal", required=True, help="terminal-data function JSON")
    p.add_argument("--query", required=True, help="query CSV (s,x1,...,xn)")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("continuity", help="push a particle measure and pair with test functions")
    p.add_argument("--driver", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--mu", required=True, help="particles CSV (w,x1,...,xn)")
    p.add_argument("--phis", required=True, help='JSON {"phis": [function, ...]}')
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_continuity)

    p = sub.add_parser("verify", help="graded verification with a machine-readable report")
    p.add_argument("target", choices=["transport", "continuity", "duality"])
    p.add_argument("--driver", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--terminal", help="terminal data (transport, duality)")
    p.add_argument("--mu", help="particles CSV (continuity, duality)")
    p.add_argument("--phis", help="test-function JSON (continuity)")
    p.add_argument("--space-grid", default="-0.5:0.5:5,-0.5:0.5:5",
                   help="product grid lo:hi:count per coordinate")
    p.add_argument("--time-points", type=_positive(int), default=257)
    p.add_argument("--anchors", type=_positive(int), default=3, help="time pairs per dyadic scale")
    p.add_argument("--solve-level", type=_positive(int), default=None,
                   help="lift level (>= the driver's) for characteristic solves; JSON drivers rise geodesically")
    p.add_argument("--duality-tol", type=float, default=1e-6)
    p.add_argument("--report", required=True)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--gamma", type=float, default=0.5, help="γ for the driver smoke suite")
    p.add_argument("--fast", action="store_true", help="reduced sizes, same checks")
    p.add_argument("--only", help="comma-separated criterion keys")
    p.add_argument("--report", help="write a consolidated JSON report")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
