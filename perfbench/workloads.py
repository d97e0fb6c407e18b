"""The benchmark workloads: their inputs, CLI jobs and correctness checks.

Every workload is a pipeline of three CLI jobs run through
``roughkit.cli.main``: ``sig`` lifts the generated driver CSV, ``solve``
runs the workload's solver and ``check`` runs the command that checks a
solution.  Sizes are chosen so that one pass takes a few seconds on one
core, which leaves room for repeats within a run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

GAMMA = "0.3"
TOTAL_WEIGHT_TOL = 1e-12
SIG_TOL = 1e-9
RESIDUAL_TOL = 1e-10
REFERENCE_REL_TOL = 1e-9
SLOPE_TOL = 1e-6

# Inputs per workload (see BENCHMARK.json for why each one exists).
#  - solve-long: one long on-grid trajectory (mesh == knot spacing) with
#    bounded trig fields; no particles or queries to batch or group.
#  - particle-transport: one short driver (17 knots) and polynomial fields
#    for a particle cloud and for transport.  The continuity mesh is 1/64,
#    so three of every four cell endpoints are off the knot grid and all
#    particles share those cells; transport flow jets run on a 2x2 space
#    grid at mesh 1/32, and the queries share four start times.
# The short driver is fBm with H = 0.9 scaled by 1/2 (still lifted at
# gamma = 0.3, so the work is the same as for a rougher path), and the
# verifiers' time grids are finer than the transport mesh, so that every
# graded slope clears its pass threshold with a wide margin on every seed.
WORKLOADS: dict[str, dict] = {
    "solve-long": dict(salt=1, n=3, d=2, driver="gaussian", hurst=0.4, knots=513,
                       fields="trig", trig_terms=2, mesh_cells=512),
    "particle-transport": dict(salt=2, n=2, d=2, driver="fbm", hurst=0.9, amplitude=0.5,
                               knots=17, fields="linear", particles=8, mesh_cells=64,
                               queries=16, query_starts=4, transport_mesh_cells=32,
                               time_points=65, continuity_anchors=6, transport_anchors=3,
                               space_grid="-0.5:0.5:2,-0.5:0.5:2"),
}


# ---------------------------------------------------------------------------
# Running one CLI job.
# ---------------------------------------------------------------------------

@dataclass
class JobResult:
    code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None  # a traceback, when main raised


def run_cli(main: Callable, argv: list[str]) -> JobResult:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        code = e.code if isinstance(e.code, int) else 2
    except Exception:
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return JobResult(code, out.getvalue(), err.getvalue(), seconds, error)


@dataclass
class Job:
    name: str  # the command, e.g. "verify-transport"
    key: str  # its role and metric: "sig", "solve" or "check"
    argv: list[str]
    artifact: str
    check: Callable[[JobResult], str | None]
    summarize: Callable[[], dict]


@dataclass
class JobOutcome:
    name: str
    seconds: float
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    summary: dict | None = None


def execute(main: Callable, job: Job, want_summary: bool = False) -> JobOutcome:
    # Start every job from an empty garbage-collector generation, so a
    # collection left over from the previous job does not land in its time.
    gc.collect()
    res = run_cli(main, job.argv)
    outcome = JobOutcome(job.name, res.seconds)
    if res.error is not None:
        outcome.problems.append(f"raised:\n{res.error}")
    elif res.code != 0:
        outcome.problems.append(f"exit code {res.code}: {res.stderr.strip()[:300]}")
    elif "Traceback" in res.stderr:
        outcome.problems.append("traceback on stderr")
    if outcome.problems:
        return outcome
    try:
        problem = job.check(res)
        if problem:
            outcome.problems.append(problem)
        with open(job.artifact, "rb") as fh:
            outcome.digest = hashlib.sha256(fh.read()).hexdigest()
        if want_summary:
            outcome.summary = job.summarize()
    except (OSError, ValueError, KeyError, IndexError) as e:
        outcome.problems.append(f"unreadable artifact: {e!r}")
    return outcome


# ---------------------------------------------------------------------------
# Independent oracles and artifact readers.
# ---------------------------------------------------------------------------

def pl_signature_levels12(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levels 1 and 2 of the signature of a piecewise-linear path.

    Chen's relation per segment: S2 += (X_k - X_0) ⊗ Δ_k + Δ_k ⊗ Δ_k / 2,
    with S2[i, j] the coefficient of the word (i+1, j+1).
    """
    values = np.asarray(values, dtype=float)
    deltas = np.diff(values, axis=0)
    before = values[:-1] - values[0]
    level2 = before.T @ deltas + 0.5 * deltas.T @ deltas
    return values[-1] - values[0], level2


def _terms(tensor: dict) -> dict[tuple[int, ...], float]:
    return {tuple(t["word"]): float(t["value"]) for t in tensor["terms"]}


def _read_csv(file: str) -> np.ndarray:
    with open(file, encoding="utf-8") as fh:
        rows = [ln.split(",") for ln in fh.read().strip().splitlines()[1:]]
    return np.asarray(rows, dtype=float)


def _read_json(file: str) -> dict:
    with open(file, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _report_summary(report: str) -> dict:
    data = _read_json(report)
    return {"slopes": [c["slope"] for c in data["checks"]], "passed": data["passed"]}


def _report_passed(report: str) -> str | None:
    data = _read_json(report)
    failed = [c["name"] for c in data["checks"] if not c["passed"]]
    if not data["passed"] or failed:
        return f"verify report did not pass: {failed}"
    return None


# ---------------------------------------------------------------------------
# The jobs of one pass.
# ---------------------------------------------------------------------------

def build_jobs(name: str, spec: dict, files: dict, out_dir: str) -> list[Job]:
    """The jobs of one workload on generated ``files``: sig first, then the
    solve jobs, then the check jobs."""
    os.makedirs(out_dir, exist_ok=True)
    out = lambda f: os.path.join(out_dir, f)  # noqa: E731
    driver = out("driver.json")

    def check_sig(res: JobResult):
        last = _terms(_read_json(driver)["basepoints"][-1])
        level1, level2 = pl_signature_levels12(files["values"])
        d = level1.shape[0]
        for i in range(d):
            if not _close(last.get((i + 1,), 0.0), level1[i], SIG_TOL):
                return f"sig level 1 word ({i + 1},) differs from the numpy signature"
            for j in range(d):
                if not _close(last.get((i + 1, j + 1), 0.0), level2[i, j], SIG_TOL):
                    return f"sig level 2 word ({i + 1},{j + 1}) differs from the numpy signature"
        return None

    def summarize_sig():
        data = _read_json(driver)
        return {"knots": len(data["times"]), "last": sorted(_terms(data["basepoints"][-1]).items())}

    jobs = [Job("sig", "sig", ["sig", "--path", files["path"], "--gamma", GAMMA, "--out", driver],
                driver, check_sig, summarize_sig)]

    def common(cells: int) -> list[str]:
        return ["--driver", driver, "--fields", files["fields"], "--mesh", repr(1.0 / cells)]

    if name == "solve-long":
        traj, traj_checked = out("traj.csv"), out("traj_residual.csv")
        rde = ["rde", *common(spec["mesh_cells"]), f"--x0={files['x0']}"]

        def check_traj(res: JobResult):
            rows = _read_csv(traj)
            if rows.shape[0] != spec["mesh_cells"] + 1 or not np.isfinite(rows).all():
                return f"trajectory has {rows.shape[0]} rows or non-finite states"
            return None

        def check_residual(res: JobResult):
            found = re.search(r"fixed-point residual ([0-9.eE+-]+)", res.stdout)
            if found is None:
                return "rde --residual printed no residual"
            if not float(found.group(1)) <= RESIDUAL_TOL:
                return f"fixed-point residual {found.group(1)} > {RESIDUAL_TOL}"
            with open(traj, "rb") as a, open(traj_checked, "rb") as b:
                if a.read() != b.read():
                    return "rde and rde --residual wrote different trajectories"
            return None

        def summarize_traj():
            rows = _read_csv(traj)
            return {"rows": rows[::64].tolist() + [rows[-1].tolist()]}

        jobs.append(Job("rde", "solve", rde + ["--out", traj], traj, check_traj, summarize_traj))
        jobs.append(Job("rde-residual", "check", rde + ["--residual", "--out", traj_checked],
                        traj_checked, check_residual, dict))
    elif name == "particle-transport":
        rho, values = out("rho.csv"), out("u.csv")
        c_report, t_report = out("continuity_report.json"), out("transport_report.json")
        measure = common(spec["mesh_cells"]) + ["--mu", files["mu"], "--phis", files["phis"]]
        problem = common(spec["transport_mesh_cells"]) + ["--terminal", files["terminal"]]

        def check_mass(res: JobResult):
            mass = _read_csv(rho)[0, 1]
            if not _close(mass, files["mass"], TOTAL_WEIGHT_TOL):
                return f"rho_T(1) = {mass!r} but the total weight is {files['mass']!r}"
            return None

        def check_values(res: JobResult):
            rows = _read_csv(values)
            if rows.shape[0] != spec["queries"] or not np.isfinite(rows).all():
                return f"transport wrote {rows.shape[0]} rows or non-finite values"
            return None

        time_points = ["--time-points", str(spec["time_points"])]
        jobs += [
            Job("continuity", "solve", ["continuity", *measure, "--time", "1.0", "--out", rho],
                rho, check_mass, lambda: {"values": _read_csv(rho)[:, 1].tolist()}),
            Job("transport", "solve", ["transport", *problem, "--query", files["query"], "--out", values],
                values, check_values, lambda: {"values": _read_csv(values)[:, -1].tolist()}),
            Job("verify-continuity", "check",
                ["verify", "continuity", *measure, *time_points,
                 "--anchors", str(spec["continuity_anchors"]), "--report", c_report],
                c_report, lambda res: _report_passed(c_report), lambda: _report_summary(c_report)),
            Job("verify-transport", "check",
                ["verify", "transport", *problem, f"--space-grid={spec['space_grid']}", *time_points,
                 "--anchors", str(spec["transport_anchors"]), "--report", t_report],
                t_report, lambda res: _report_passed(t_report), lambda: _report_summary(t_report)),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return jobs


def compare_summary(got: dict, want: dict) -> list[str]:
    """Differences between a job summary and its recorded reference."""
    problems = []

    def walk(a, b, path):
        if isinstance(b, dict):
            if not isinstance(a, dict) or set(a) != set(b):
                problems.append(f"reference{path}: keys differ")
                return
            for k in b:
                walk(a[k], b[k], f"{path}.{k}")
        elif isinstance(b, (list, tuple)):
            if not isinstance(a, (list, tuple)) or len(a) != len(b):
                problems.append(f"reference{path}: length differs")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif isinstance(b, int):  # counts and flags must match exactly
            if a != b:
                problems.append(f"reference{path}: {a!r} != {b!r}")
        else:
            tol = SLOPE_TOL if path.startswith(".slopes") else REFERENCE_REL_TOL
            if not (isinstance(a, (int, float)) and _close(float(a), float(b), tol)
                    or (math.isnan(float(a)) and math.isnan(float(b)))):
                problems.append(f"reference{path}: {a!r} differs from {b!r}")

    walk(got, want, "")
    return problems
