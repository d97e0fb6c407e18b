"""End-to-end benchmark rows for roughkit, written to ``BENCH_<n>.json``.

    python3 bench/run.py                    # writes the next free BENCH_<n>.json
    python3 bench/run.py --out BENCH_1.json

Run from the root of a roughkit checkout; the package is imported from
``src/``.  Every repeat of a row runs in a fresh subprocess with
single-threaded BLAS and bytecode writing off, as ``perfbench/run.py`` runs
its set-up, on perfbench's seed-0 fixtures (``perfbench/inputs.py``):

- ``setup.<workload>``: perfbench's set-up split into its parts, a fresh
  ``import roughkit.cli`` (numpy already loaded) and ``sig`` on the
  workload's driver;
- ``cli.<workload>.<job>``: each later CLI job of the workload, timed from
  a fresh import on (so it includes loading the modules the command runs);
- ``selftest --fast``;
- ``tier1``: one run of the tier-1 suite;
- ``layer.*``: warm per-call seconds of the sequential Davie path on the
  ``solve-long`` fixture (trig fields, n = 3, d = 2, N = 3), each the median
  of LAYER_CALLS calls in a subprocess of its own per repeat, so that no two
  rows share a process's fast or slow mode: ``values_at`` at one point and at
  the 513 solved states, ``solve_rde`` over the 512 on-grid cells, the
  ``graded_expansion`` call ``compose`` makes for one field on the
  513-point lift that ``rde --residual`` integrates, and the whole
  ``fixed_point_residual`` of that job on a fresh ``RdeSolution`` per call,
  so that the cached controlled lift ``path`` is rebuilt each time;
  and the flow-jet path of ``verify transport`` on the
  ``particle-transport`` fixture (polynomial fields, n = d = 2, mesh 1/32,
  the 2x2 space grid and the start times its 65-point time grid needs):
  ``FlowSolutionOracle.jets`` over that grid, and the one ``jet_compose``
  that chains the terminal data through all its flow jets; on the same
  fixture, ``solve_transport`` on its 16 queries (mesh 1/32), and
  ``push_measure`` of its 8-particle cloud to T (mesh 1/64), as the
  ``transport`` and ``continuity`` jobs run them; one fresh
  ``derive_fields`` on its fields at the driver's level, the table every
  ``transport`` and ``continuity`` job builds; and a fresh table with its
  first ``jet_stacks`` at pmax 3 on the 2x2 space grid, which compiles the
  polynomial jet sweep as every ``verify transport`` job does; and the
  graded verifier ``verify_continuity`` as the ``verify continuity`` job
  runs it (the cloud's evolution pushed at mesh 1/64, the workload's test
  functions, its 65-point time grid and 6 anchors per scale).

Each row records, over REPEATS subprocesses, the median of the in-process
seconds, the median wall time of the whole subprocess, and the samples.
The file also records the git SHA and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC, PERFBENCH = os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
REPEATS = 5
LAYER_CALLS = {"values_at.point": 400, "solve_rde.cells": 5, "values_at.513": 40, "graded_expansion.compose": 40,
               "fixed_point_residual": 40, "flow_jets.verify_grid": 20, "jet_compose.terminal": 200,
               "solve_transport.queries": 40, "push_measure.cloud": 40, "derive_fields.table": 30,
               "jet_stacks.fresh": 30, "verify_continuity.grid": 40}
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", ROUGHKIT_THREADS="1",
           PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join([SRC, PERFBENCH]))


def child(workload: str, job: str, directory: str) -> dict:
    """One repeat of a row, inside its fresh subprocess: the seconds of
    each timed part."""
    import numpy  # noqa: F401  (loaded before the clock, as in perfbench)

    if workload == "layers":
        return layers(directory, job)
    if workload == "selftest":
        start = time.perf_counter()
        from roughkit.cli import main

        code = main(["selftest", "--fast"])
        return {"selftest": time.perf_counter() - start, "exit": code}
    import inputs
    import workloads

    spec = workloads.WORKLOADS[workload]
    jobs = workloads.build_jobs(workload, spec, inputs.write_inputs(spec, 0, os.path.join(directory, "in")),
                                os.path.join(directory, "out"))
    start = time.perf_counter()
    from roughkit.cli import main

    parts = {"import": time.perf_counter() - start}
    start = time.perf_counter()
    code = main(jobs[0].argv)
    parts["sig"] = time.perf_counter() - start
    if job != "sig":
        (chosen,) = [j for j in jobs if j.name == job]
        start = time.perf_counter()
        code = main(chosen.argv)
        parts = {job: parts["import"] + time.perf_counter() - start}
    parts["exit"] = code
    return parts


def layers(directory: str, name: str) -> dict:
    """Median warm seconds per call of the ``layer.<name>`` row; the fixtures
    of every row are built, and only this row is timed."""
    import dataclasses

    import numpy as np

    import inputs
    import workloads
    from roughkit.algebra import expansion_plan
    from roughkit.cli import _load_measure, _load_phis, _parse_grid, _read_csv, parse_csv
    from roughkit.functions import function_from_json_dict, graded_expansion
    from roughkit.jets import jet_compose, terminal_flow_jets
    from roughkit.rde import derive_fields, solve_rde, system_from_json_dict
    from roughkit.roughpath import PiecewiseLinearPath, lift_pl, solve_partition
    from roughkit.rpde import FlowSolutionOracle, TransportProblem, _select_time_pairs, push_measure, solve_transport
    from roughkit.rpde import verify_continuity

    def load(name: str):
        spec = workloads.WORKLOADS[name]
        files = inputs.write_inputs(spec, 0, os.path.join(directory, name))
        with open(files["path"], encoding="utf-8") as fh:
            driver = lift_pl(PiecewiseLinearPath.from_csv(fh.read()), float(workloads.GAMMA))
        with open(files["fields"], encoding="utf-8") as fh:
            system = system_from_json_dict(json.load(fh))
        return spec, files, driver, system

    spec, files, driver, system = load("solve-long")
    table = derive_fields(system, driver.level)
    x0 = np.array([float(v) for v in files["x0"].split(",")])
    partition = solve_partition(driver, 0.0, driver.horizon, 1.0 / spec["mesh_cells"])
    solution = solve_rde(x0, system, driver, partition, table=table)
    X = solution.path.truncate(min(solution.path.order, driver.hoelder_level))  # as fixed_point_residual
    phi, present = system.fields[0], X.stacked.any(axis=(0, 2))

    def compose_kernel():
        graded_expansion(lambda k: [phi.deriv_tensors(X.primal, k)], X.stacked, expansion_plan(X.dim, 1, X.order - 1),
                         phi.n_out, present)

    # verify transport on the particle-transport fixture, as the CLI sets it up.
    spec_t, files_t, driver_t, system_t = load("particle-transport")
    with open(files_t["terminal"], encoding="utf-8") as fh:
        problem = TransportProblem(system_t, function_from_json_dict(json.load(fh)), driver_t)
    oracle = FlowSolutionOracle(problem, mesh=1.0 / spec_t["transport_mesh_cells"])
    grid = np.stack(_parse_grid(spec_t["space_grid"]))
    time_grid = np.linspace(0.0, problem.horizon, spec_t["time_points"])
    i, j, _ = _select_time_pairs(time_grid, spec_t["transport_anchors"])
    starts = time_grid[np.unique(np.concatenate([i, j]))].tolist()
    partitions = [solve_partition(driver_t, s, problem.horizon, oracle.mesh) for s in starts]
    flow = terminal_flow_jets(grid, system_t, driver_t, partitions, oracle.jet_order, oracle.table)
    rows = [b.reshape((-1,) + b.shape[2:]) for b in flow]
    outer = problem.terminal.deriv_tensors(rows[0], range(oracle.jet_order + 1))
    queries = [(float(r[0]), r[1:]) for r in _read_csv(files_t["query"], lambda text: parse_csv(text, "s"))[1]]
    mu = _load_measure(files_t["mu"])
    phis = _load_phis(files_t["phis"])
    evolution = push_measure(system_t, driver_t, mu, time_grid, 1.0 / spec_t["mesh_cells"])

    calls = {
        "values_at.point": lambda: table.values_at(x0),
        "solve_rde.cells": lambda: solve_rde(x0, system, driver, partition, table=table),
        "values_at.513": lambda: table.values_at(solution.states),
        "graded_expansion.compose": compose_kernel,
        "fixed_point_residual": lambda: dataclasses.replace(solution).fixed_point_residual(),
        "flow_jets.verify_grid": lambda: oracle.jets(starts, grid),
        "jet_compose.terminal": lambda: jet_compose(outer, rows),
        "solve_transport.queries": lambda: solve_transport(problem, queries, oracle.mesh),
        "push_measure.cloud": lambda: push_measure(system_t, driver_t, mu, np.array([0.0, problem.horizon]),
                                                   1.0 / spec_t["mesh_cells"]),
        "derive_fields.table": lambda: derive_fields(system_t, driver_t.level),
        "jet_stacks.fresh": lambda: derive_fields(system_t, driver_t.level).jet_stacks(grid, 3),
        "verify_continuity.grid": lambda: verify_continuity(system_t, driver_t, evolution, phis, time_grid,
                                                            anchors_per_scale=spec_t["continuity_anchors"]),
    }
    call, seconds = calls[name], []
    call()
    for _ in range(LAYER_CALLS[name]):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return {name: statistics.median(seconds), "exit": 0}


def repeat(workload: str, job: str) -> list[tuple[dict, float]]:
    """(parts, subprocess wall seconds) of REPEATS fresh subprocesses."""
    out = []
    for k in range(REPEATS):
        directory = os.path.join(WORK, f"{workload}-{job}-{k}")
        argv = [sys.executable, os.path.abspath(__file__), "--child", workload, job, directory]
        start = time.perf_counter()
        done = subprocess.run(argv, env=ENV, capture_output=True, text=True, check=True, cwd=ROOT)
        wall = time.perf_counter() - start
        out.append((json.loads(done.stdout.strip().splitlines()[-1]), wall))
        shutil.rmtree(directory, ignore_errors=True)
    return out


def row(samples: list[float], walls: list[float], codes: list[int]) -> dict:
    return {"median_s": statistics.median(samples), "process_median_s": statistics.median(walls),
            "samples_s": samples, "exit_codes": sorted(set(codes))}


def tier1() -> dict:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          env=dict(ENV, PYTHONPATH=SRC), capture_output=True, text=True, cwd=ROOT)
    wall = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    passed = re.search(r"(\d+) passed", summary)
    return {"median_s": wall, "runs": 1, "passed": int(passed.group(1)) if passed else 0, "summary": summary}


def machine() -> dict:
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "cpu": model or platform.processor(), "python": platform.python_version(), "numpy": np.__version__}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, cwd=ROOT).stdout.strip()


def next_bench_file() -> str:
    n = 1
    while os.path.exists(os.path.join(ROOT, f"BENCH_{n}.json")):
        n += 1
    return os.path.join(ROOT, f"BENCH_{n}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=None, help="output file (default: the next free BENCH_<n>.json)")
    parser.add_argument("--child", nargs=3, metavar=("WORKLOAD", "JOB", "DIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(*args.child)))
        return 0
    sys.path.insert(0, PERFBENCH)
    import inputs
    import workloads

    rows = {}
    try:
        for workload in workloads.WORKLOADS:
            runs = repeat(workload, "sig")
            walls, codes = [w for _, w in runs], [p["exit"] for p, _ in runs]
            for part in ("import", "sig"):
                rows[f"setup.{workload}.{part}"] = row([p[part] for p, _ in runs], walls, codes)
            spec = workloads.WORKLOADS[workload]
            files = inputs.write_inputs(spec, 0, os.path.join(WORK, "jobs", "in"))
            jobs = workloads.build_jobs(workload, spec, files, os.path.join(WORK, "jobs", "out"))
            for job in jobs[1:]:
                runs = repeat(workload, job.name)
                rows[f"cli.{workload}.{job.name}"] = row([p[job.name] for p, _ in runs], [w for _, w in runs],
                                                         [p["exit"] for p, _ in runs])
        for name in LAYER_CALLS:
            runs = repeat("layers", name)
            rows[f"layer.{name}"] = row([p[name] for p, _ in runs], [w for _, w in runs], [p["exit"] for p, _ in runs])
        runs = repeat("selftest", "selftest")
        rows["selftest --fast"] = row([p["selftest"] for p, _ in runs], [w for _, w in runs],
                                      [p["exit"] for p, _ in runs])
        rows["tier1"] = tier1()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result = {"git_sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "src")),
              "machine": machine(), "repeats": REPEATS, "rows": rows}
    out = args.out or next_bench_file()
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=2) + "\n")
    for name, r in rows.items():
        print(f"{name:42s} {r['median_s']:10.4g} s")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
