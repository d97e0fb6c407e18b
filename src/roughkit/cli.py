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
import math
import os
import sys
from functools import cache
from typing import Callable

import numpy as np

from . import __version__
from .errors import NumericalFailure
from .roughpath import PiecewiseLinearPath, _check_size, _read_csv, _word_count, _write_text, hoelder_level, lift_pl
from .roughpath import parse_csv, sample_fbm

# ``sig`` runs from this module alone.  The other commands' handlers and loaders live in ``commands``, which
# ``main`` imports on their first call; their old names here still resolve to it (PEP 562).  Both modules take
# the file helpers from ``roughpath``; ``parse_csv`` is imported here only for callers of its old name.
_COMMANDS = frozenset("""_cmd_rde _cmd_transport _cmd_continuity _cmd_verify _cmd_selftest _build_problem _read_json
    _load_json _load_driver _load_fields _load_phis _load_measure _parse_x0 _parse_grid _report_payload
    _config_hash""".split())


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


def _cmd_sig(args) -> int:
    if args.path is None and args.fbm_hurst is None:
        raise ValueError("sig needs --path or --fbm-hurst")
    level = hoelder_level(args.gamma) if args.level is None else args.level
    path = None if args.path is None else _read_csv(args.path, PiecewiseLinearPath.from_csv)
    d, letters = (args.fbm_dim, f"--fbm-dim {args.fbm_dim}") if path is None else (path.dim, f"d = {path.dim}")
    _check_size(f"level {level} (--level, or 1/--gamma) over {letters} letters", _word_count(d, level), "words")
    if path is None:  # both sizes of the sample are bounded before it is drawn
        _check_size(f"--fbm-knots {args.fbm_knots}", args.fbm_knots, "knots")
        path = sample_fbm(H=args.fbm_hurst, d=d, knots=args.fbm_knots, seed=args.seed, horizon=args.horizon)
    with np.errstate(over="ignore", invalid="ignore"):  # to_json names a knot that overflowed
        rough = lift_pl(path, gamma=args.gamma, level=level)
    _write_text(args.out, rough.to_json() + "\n")
    print(f"sig: wrote level-{rough.level} lift of {len(path.times)} knots to {args.out}")
    return 0



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
report JSON     {"config", "config_hash", "checks": [{"slope": float | null, "exact": bool, ...}, ...], "passed"}
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

    p = sub.add_parser("rde", help="solve an RDE along a driver")
    p.add_argument("--driver", required=True, help="rough-path JSON from `sig`")
    p.add_argument("--fields", required=True, help="vector-fields JSON")
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.add_argument("--residual", action="store_true", help="report the fixed-point residual")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("transport", help="solve the rough transport equation at queries")
    p.add_argument("--driver", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--terminal", required=True, help="terminal-data function JSON")
    p.add_argument("--query", required=True, help="query CSV (s,x1,...,xn)")
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("continuity", help="push a particle measure and pair with test functions")
    p.add_argument("--driver", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--mu", required=True, help="particles CSV (w,x1,...,xn)")
    p.add_argument("--phis", required=True, help='JSON {"phis": [function, ...]}')
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--out", required=True)
    common(p)

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

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--gamma", type=float, default=0.5, help="γ for the driver smoke suite")
    p.add_argument("--fast", action="store_true", help="reduced sizes, same checks")
    p.add_argument("--only", help="comma-separated criterion keys")
    p.add_argument("--report", help="write a consolidated JSON report")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sig":
            return _cmd_sig(args)
        from . import commands

        return getattr(commands, f"_cmd_{args.command}")(args)
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


def __getattr__(name: str):
    if name not in _COMMANDS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import commands

    return getattr(commands, name)


if __name__ == "__main__":
    sys.exit(main())
