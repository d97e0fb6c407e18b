"""Benchmark of the roughkit CLI on two seeded workloads.

    python3 perfbench/run.py --workload solve-long --seed 1 --seconds 45 --trace 0

Run from the root of a roughkit checkout; the package is imported from
``src/``.  One process runs everything through ``roughkit.cli.main``:

1. set-up, repeated SETUP_REPEATS times: import roughkit afresh, write the
   seeded input files and lift the driver with ``sig`` (``setup_s`` is the
   median);
2. a warm-up pass on the fixed reference inputs, checked against the values
   recorded in ``reference.json``;
3. passes of the workload's solve and check jobs until ``--seconds`` have
   elapsed (at least MIN_PASSES).  Every job is checked; a repeated job
   must write byte-identical artifacts.

With ``--trace 0`` the last stdout line holds the end-to-end metrics: the
set-up time, the median over passes of the solve and the check jobs' time,
the peak RSS and the share of jobs that passed their checks.  With
``--trace 1`` the passes also run sig; the first third of the time runs
untraced passes and the rest traced ones, and the line holds the
per-layer span metrics per pass plus the tracing overhead.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, set before numpy is imported anywhere, and a
# single-threaded CLI (its --threads default), which the span stack needs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["ROUGHKIT_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_FILE = os.path.join(HERE, "reference.json")
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_SEED = 0
SETUP_REPEATS = 7
MIN_PASSES = 3


def import_roughkit(fresh: bool = False):
    """Import roughkit.cli from this checkout's ``src/`` (never from
    elsewhere); ``fresh`` drops any loaded roughkit modules first."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "roughkit", "__init__.py")):
        raise ImportError(f"no roughkit sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    if fresh:
        for name in [n for n in sys.modules if n == "roughkit" or n.startswith("roughkit.")]:
            del sys.modules[name]
    module = importlib.import_module("roughkit.cli")
    if not os.path.abspath(module.__file__).startswith(src + os.sep):
        raise ImportError(f"roughkit was imported from {module.__file__}, not {src}")
    return module


def environment() -> dict:
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "roughkit_threads": os.environ["ROUGHKIT_THREADS"],
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


class Runner:
    """One workload in one process: set-up, reference pass, timed passes."""

    def __init__(self, cli, workload: str, seed: int, work_dir: str, spec: dict | None = None):
        self.cli, self.name, self.seed, self.work_dir = cli, workload, seed, work_dir
        self.spec = workloads.WORKLOADS[workload] if spec is None else spec
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, outcome, where: str):
        """Count a job; it failed if any check found a problem."""
        self.attempted += 1
        self.failed += bool(outcome.problems)
        for problem in outcome.problems:
            self.failures.append(f"{where} {outcome.name}: {problem}")

    def prepare(self, seed: int, tag: str) -> list:
        directory = os.path.join(self.work_dir, tag)
        shutil.rmtree(directory, ignore_errors=True)
        files = inputs.write_inputs(self.spec, seed, os.path.join(directory, "in"))
        return workloads.build_jobs(self.name, self.spec, files, os.path.join(directory, "out"))

    def setup(self) -> tuple[list[float], list]:
        """Set up SETUP_REPEATS times: import roughkit afresh, write the
        inputs and lift the driver with sig.  Returns the set-up times and
        the jobs of the last set-up, whose driver the timed passes use."""
        times = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.cli = import_roughkit(fresh=True)
            jobs = self.prepare(self.seed, f"setup{rep}")
            outcome = workloads.execute(self.cli.main, jobs[0])
            times.append(time.perf_counter() - start)
            self.check_repeat(outcome)
            self.record(outcome, f"setup {rep}")
        return times, jobs

    def check_repeat(self, outcome):
        """A job repeated on the same inputs must write the same bytes."""
        if outcome.digest is not None:
            first = self.digests.setdefault(outcome.name, outcome.digest)
            if first != outcome.digest:
                outcome.problems.append("artifact differs from its first run")

    def reference_pass(self, record: bool = False) -> dict:
        """The warm-up pass on the fixed reference inputs."""
        jobs = self.prepare(REFERENCE_SEED, "reference")
        want = {} if record else load_reference().get(self.name, {})
        summaries = {}
        for job in jobs:
            outcome = workloads.execute(self.cli.main, job, want_summary=True)
            summaries[job.name] = json.loads(json.dumps(outcome.summary))
            if not record and not outcome.problems:
                if job.name not in want:
                    outcome.problems.append("no reference values recorded")
                else:
                    outcome.problems += workloads.compare_summary(summaries[job.name], want[job.name])
            self.record(outcome, "reference")
        return summaries

    def timed_passes(self, seconds: float, jobs: list, min_passes: int = MIN_PASSES):
        """Run passes over ``jobs`` for ``seconds`` (at least ``min_passes``;
        no pass is started that the fastest pass so far could not finish in
        time).  Returns each pass's time (the sum of its job times) and, per
        job key, the summed time of that key's jobs in every pass where they
        all passed their checks."""
        pass_s, key_s = [], {job.key: [] for job in jobs}
        start = time.perf_counter()
        while len(pass_s) < min_passes or time.perf_counter() - start + min(pass_s) <= seconds:
            where = f"pass {len(pass_s)}"
            totals: dict[str, float | None] = dict.fromkeys(key_s, 0.0)
            pass_s.append(0.0)
            for job in jobs:
                outcome = workloads.execute(self.cli.main, job)
                self.check_repeat(outcome)
                self.record(outcome, where)
                pass_s[-1] += outcome.seconds
                if totals[job.key] is not None:
                    totals[job.key] = None if outcome.problems else totals[job.key] + outcome.seconds
            for key, total in totals.items():
                if total is not None:
                    key_s[key].append(total)
        return pass_s, key_s


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def median_of(samples: list[float]) -> float:
    """The median of a run's per-pass times for one job key.  Passes where
    a job failed are left out (a failed job may end early)."""
    return statistics.median(samples) if samples else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    units = metric_units()
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    try:
        runner = Runner(cli, workload, seed, work_dir)
        setup_times, jobs = runner.setup()
        setup_s = statistics.median(setup_times)
        runner.reference_pass()
        if not trace:
            _, job_s = runner.timed_passes(seconds, jobs[1:])
            metrics = {
                "setup_s": setup_s,
                "solve_s": median_of(job_s["solve"]),
                "check_s": median_of(job_s["check"]),
                "peak_rss_mb": peak_rss_mb(),
                "ok_frac": 1.0 - runner.failed / runner.attempted,
            }
        else:
            plain, _ = runner.timed_passes(seconds / 3.0, jobs, min_passes=1)
            tr = tracing.Tracer()
            tr.install()
            try:
                traced, _ = runner.timed_passes(2.0 * seconds / 3.0, jobs, min_passes=1)
            finally:
                tr.uninstall()
            metrics = tr.metrics(len(traced), sum(traced))
            metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
            metrics["cli.artifact_bytes"] = sum(os.path.getsize(job.artifact) for job in jobs)
            if tr.absent:
                print(f"# absent spans: {', '.join(tr.absent)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in runner.failures[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def metric_units() -> dict[str, str]:
    """Every metric's unit, as BENCHMARK.json declares it."""
    with open(SPEC_FILE, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_roughkit()
    except ImportError as e:
        print(f"perfbench: cannot import roughkit: {e}", file=sys.stderr)
        return 2
    result = run(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
