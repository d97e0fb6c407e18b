"""Tests of the benchmark itself: tracer arithmetic, the signature oracle,
and a small smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_tracer_self_time_of_nested_calls():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    leaf_t = tr.wrap("t.leaf", leaf)

    def middle():
        clock.advance(1.0)
        leaf_t()
        leaf_t()
        clock.advance(0.5)

    middle_t = tr.wrap("t.middle", middle)

    def outer():
        clock.advance(3.0)
        middle_t()
        leaf_t()

    tr.wrap("t.outer", outer)()
    # outer: 3 + middle (1 + 2 + 2 + 0.5) + leaf 2 = 10.5 in total.
    assert tr.calls == {"t.outer": 1, "t.middle": 1, "t.leaf": 3}
    assert tr.self_s["t.leaf"] == pytest.approx(6.0)
    assert tr.self_s["t.middle"] == pytest.approx(1.5)
    assert tr.self_s["t.outer"] == pytest.approx(3.0)
    assert tr.top_level_s == pytest.approx(10.5)
    assert sum(tr.self_s.values()) == pytest.approx(tr.top_level_s)


def test_tracer_unwinds_on_exceptions():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    boom_t = tr.wrap("t.boom", boom)

    def caller():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            boom_t()

    tr.wrap("t.caller", caller)()
    assert tr.self_s["t.boom"] == pytest.approx(1.0)
    assert tr.self_s["t.caller"] == pytest.approx(1.0)
    assert tr.top_level_s == pytest.approx(2.0)


def test_tracer_counting_is_outside_every_self_time():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    leaf_t = tr.wrap("t.leaf", leaf, observe=lambda tracer, args, kwargs: clock.advance(5.0))

    def caller():
        clock.advance(1.0)
        leaf_t()

    tr.wrap("t.caller", caller)()
    assert tr.self_s["t.leaf"] == pytest.approx(2.0)
    assert tr.self_s["t.caller"] == pytest.approx(1.0)
    assert tr.top_level_s == pytest.approx(8.0)


def test_uncovered_time_counts_the_cli_span_itself():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)
    convolution = tr.wrap("algebra.convolution", lambda: clock.advance(3.0))

    def main():
        clock.advance(1.0)
        convolution()

    tr.wrap("cli.main", main)()
    clock.advance(1.0)
    metrics = tr.metrics(passes=1, wall_s=5.0)
    assert metrics["trace.uncovered_frac"] == pytest.approx(2.0 / 5.0)


def test_tracer_rebinds_aliases_and_reports_absent_targets(monkeypatch):
    run.import_roughkit()
    from roughkit import algebra, roughpath
    from roughkit.roughpath import GeometricRoughPath

    original = algebra.convolution
    original_from_json = GeometricRoughPath.__dict__["from_json_dict"]
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (("algebra.gone", "roughkit.algebra", "no_such_function"),))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert roughpath.convolution is algebra.convolution is not original
        assert isinstance(GeometricRoughPath.__dict__["from_json_dict"], classmethod)
        path = roughpath.lift_pl(
            roughpath.PiecewiseLinearPath(times=np.array([0.0, 0.5, 1.0]),
                                          values=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])),
            gamma=0.5,
        )
        loaded = GeometricRoughPath.from_json_dict(path.to_json_dict())

        def command():  # distinct increments are counted per top-level span
            loaded.increment(0.25, 1.0)
            loaded.increment(0.25, 1.0)

        traced_command = tr.wrap("t.command", command)
        traced_command()
        traced_command()
    finally:
        tr.uninstall()
    assert algebra.convolution is original and roughpath.convolution is original
    assert GeometricRoughPath.__dict__["from_json_dict"] is original_from_json
    assert tr.absent == ["algebra.gone"]
    assert tr.calls["roughpath.lift_pl"] == 1
    assert tr.calls["roughpath.from_json_dict"] == 1
    assert tr.calls["roughpath.increment"] == 4
    assert tr.calls["algebra.convolution"] > 0
    metrics = tr.metrics(passes=1, wall_s=1.0)
    assert metrics["roughpath.increment.distinct_frac"] == pytest.approx(0.5)
    assert metrics["roughpath.increment.offgrid_frac"] == pytest.approx(1.0)
    assert metrics["algebra.gone.calls"] == 0


def test_numpy_signature_of_two_segments():
    # (0,0) -> (1,0) -> (1,1): S1 = (1, 1); S2 = [[1/2, 1], [0, 1/2]].
    level1, level2 = workloads.pl_signature_levels12(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    assert level1.tolist() == [1.0, 1.0]
    assert level2.tolist() == [[0.5, 1.0], [0.0, 0.5]]


def test_numpy_signature_matches_a_roughkit_lift():
    run.import_roughkit()
    from roughkit.roughpath import PiecewiseLinearPath, lift_pl

    rng = np.random.default_rng(4)
    values = np.cumsum(rng.normal(size=(9, 3)), axis=0)
    lifted = lift_pl(PiecewiseLinearPath(times=np.linspace(0, 1, 9), values=values), gamma=0.5)
    last = lifted.basepoints[-1]
    level1, level2 = workloads.pl_signature_levels12(values)
    from roughkit.algebra import Word

    for i in range(3):
        assert last.coeff(Word((i + 1,))) == pytest.approx(level1[i], abs=1e-12)
        for j in range(3):
            assert last.coeff(Word((i + 1, j + 1))) == pytest.approx(level2[i, j], abs=1e-12)


def test_inputs_depend_only_on_the_seed(tmp_path):
    import inputs

    spec = workloads.WORKLOADS["particle-transport"]
    a = inputs.write_inputs(spec, 5, str(tmp_path / "a"))
    b = inputs.write_inputs(spec, 5, str(tmp_path / "b"))
    c = inputs.write_inputs(spec, 6, str(tmp_path / "c"))
    for key in ("path", "fields", "mu", "phis", "terminal", "query"):
        assert open(a[key], "rb").read() == open(b[key], "rb").read()
    assert open(a["path"], "rb").read() != open(c["path"], "rb").read()
    starts = {line.split(",")[0] for line in open(a["query"]).read().splitlines()[1:]}
    assert len(starts) == spec["query_starts"]


def scaled(spec: dict, factor: float) -> dict:
    """A smaller copy of a workload: fewer knots, cells, time points,
    particles and queries, with the same ratios between them."""
    out = dict(spec)
    for key in ("knots", "time_points"):
        if key in spec:
            out[key] = int((spec[key] - 1) * factor) + 1
    for key in ("mesh_cells", "transport_mesh_cells", "particles", "queries"):
        if key in spec:
            out[key] = max(spec.get("query_starts", 1), int(spec[key] * factor))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name, tmp_path):
    cli = run.import_roughkit()
    spec = scaled(workloads.WORKLOADS[name], 0.5)
    runner = run.Runner(cli, name, seed=3, work_dir=str(tmp_path), spec=spec)
    setup, jobs = runner.setup()
    pass_s, job_s = runner.timed_passes(0.0, jobs, min_passes=2)
    assert runner.failures == []
    assert runner.attempted == run.SETUP_REPEATS + 2 * len(jobs)
    assert len(setup) == run.SETUP_REPEATS and len(pass_s) == 2
    assert {k: len(v) for k, v in job_s.items()} == {"sig": 2, "solve": 2, "check": 2}
    assert [job.key for job in jobs][:2] == ["sig", "solve"] and jobs[-1].key == "check"


def test_reference_covers_every_job(tmp_path):
    import inputs

    reference = run.load_reference()
    assert set(reference) == set(workloads.WORKLOADS)
    for name, spec in workloads.WORKLOADS.items():
        files = inputs.write_inputs(spec, 0, str(tmp_path / name / "in"))
        jobs = workloads.build_jobs(name, spec, files, str(tmp_path / name / "out"))
        assert set(reference[name]) == {job.name for job in jobs}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    tr = tracing.Tracer()
    printed = set(tr.metrics(passes=1, wall_s=1.0)) | {"trace.overhead", "cli.artifact_bytes"}
    assert {m["name"] for m in spec["per_layer"]} == printed
