"""End-to-end CLI tests: artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest

from roughkit.cli import main
from roughkit.roughpath import PiecewiseLinearPath, sample_fbm


@pytest.fixture
def workspace(tmp_path):
    """A driver JSON, fields JSON, terminal JSON and query/particle CSVs."""
    path = sample_fbm(H=0.6, d=2, knots=17, seed=3)
    path_csv = tmp_path / "path.csv"
    path_csv.write_text(path.to_csv())

    driver_json = tmp_path / "driver.json"
    assert main([
        "sig", "--path", str(path_csv), "--gamma", "0.5", "--out", str(driver_json)
    ]) == 0

    fields_json = tmp_path / "fields.json"
    fields_json.write_text(json.dumps({
        "n": 2, "d": 2,
        "fields": [
            {"family": "polynomial", "n_in": 2, "components": [
                [{"exponents": [0, 1], "coeff": 0.5}],
                [{"exponents": [1, 0], "coeff": -0.5}],
            ]},
            {"family": "affine", "matrix": [[0.2, 0.0], [0.0, -0.2]], "offset": [0.1, 0.0]},
        ],
    }))

    terminal_json = tmp_path / "terminal.json"
    terminal_json.write_text(json.dumps({
        "family": "polynomial", "n_in": 2,
        "components": [[
            {"exponents": [2, 0], "coeff": 0.5},
            {"exponents": [0, 2], "coeff": 0.5},
        ]],
    }))

    query_csv = tmp_path / "query.csv"
    query_csv.write_text("s,x1,x2\n0.0,0.3,-0.2\n0.5,0.1,0.4\n1.0,1.0,1.0\n")

    particles_csv = tmp_path / "particles.csv"
    rng = np.random.default_rng(5)
    lines = ["w,x1,x2"] + [
        f"1.0,{rng.normal():.6f},{rng.normal():.6f}" for _ in range(6)
    ]
    particles_csv.write_text("\n".join(lines) + "\n")

    phis_json = tmp_path / "phis.json"
    phis_json.write_text(json.dumps({"phis": [
        {"family": "named", "name": "zero", "n": 2} | {},
        {"family": "polynomial", "n_in": 2, "components": [[{"exponents": [0, 0], "coeff": 1.0}]]},
        {"family": "polynomial", "n_in": 2, "components": [[{"exponents": [1, 0], "coeff": 1.0}]]},
    ][1:]}))

    return {
        "tmp": tmp_path,
        "path_csv": path_csv,
        "driver": driver_json,
        "fields": fields_json,
        "terminal": terminal_json,
        "query": query_csv,
        "particles": particles_csv,
        "phis": phis_json,
    }


def test_sig_round_trip_and_determinism(workspace, tmp_path):
    again = tmp_path / "driver2.json"
    assert main([
        "sig", "--path", str(workspace["path_csv"]), "--gamma", "0.5", "--out", str(again)
    ]) == 0
    assert again.read_bytes() == workspace["driver"].read_bytes()
    data = json.loads(workspace["driver"].read_text())
    assert data["level"] == 2 and data["gamma"] == 0.5


def test_sig_fbm_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main([
            "sig", "--fbm-hurst", "0.4", "--fbm-knots", "17", "--gamma", "0.3",
            "--seed", "11", "--out", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rde_command(workspace, tmp_path):
    out = tmp_path / "traj.csv"
    assert main([
        "rde", "--driver", str(workspace["driver"]), "--fields", str(workspace["fields"]),
        "--x0", "0.3,-0.2", "--mesh", "0.05", "--residual", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.3, -0.2]
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert all(np.isfinite(last))


def test_transport_command_terminal_row(workspace, tmp_path):
    out = tmp_path / "u.csv"
    assert main([
        "transport", "--driver", str(workspace["driver"]), "--fields", str(workspace["fields"]),
        "--terminal", str(workspace["terminal"]), "--query", str(workspace["query"]),
        "--mesh", "0.02", "--out", str(out),
    ]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "s,x1,x2,u"
    # The s = T query returns g(x) exactly: g(1,1) = 1.
    val = float(rows[3].split(",")[-1])
    assert val == pytest.approx(1.0, abs=1e-12)


def test_continuity_command_mass(workspace, tmp_path):
    out = tmp_path / "rho.csv"
    assert main([
        "continuity", "--driver", str(workspace["driver"]), "--fields", str(workspace["fields"]),
        "--mu", str(workspace["particles"]), "--phis", str(workspace["phis"]),
        "--time", "1.0", "--mesh", "0.02", "--out", str(out),
    ]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "phi,value"
    mass = float(rows[1].split(",")[1])
    assert mass == pytest.approx(6.0, abs=1e-12)  # six unit weights


def test_verify_transport_report(workspace, tmp_path):
    report_path = tmp_path / "report.json"
    args = [
        "verify", "transport", "--driver", str(workspace["driver"]),
        "--fields", str(workspace["fields"]), "--terminal", str(workspace["terminal"]),
        "--space-grid=-0.4:0.4:2,-0.4:0.4:2", "--time-points", "65",
        "--anchors", "2", "--mesh", str(1.0 / 64.0), "--solve-level", "3",
        "--report", str(report_path),
    ]
    assert main(args) == 0
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    assert payload["config_hash"]
    assert all("slope" in c for c in payload["checks"])
    # Determinism: the regenerated report is byte-identical.
    blob = report_path.read_bytes()
    assert main(args) == 0
    assert report_path.read_bytes() == blob


def test_verify_report_of_an_exact_fit_is_strict_json(tmp_path):
    """Constant fields and affine terminal data leave every transport defect
    at float noise, so each check is an exact fit: its slope is written as
    null, with ``exact`` true, never as the non-standard ``Infinity``."""
    ts = np.linspace(0.0, 1.0, 9)
    files = {"path.csv": PiecewiseLinearPath(ts, np.column_stack([np.sin(3 * ts), ts**2])).to_csv()}
    constants = [{"family": "affine", "matrix": [[0.0, 0.0], [0.0, 0.0]], "offset": offset}
                 for offset in ([0.5, 0.0], [0.0, -0.25])]
    files["fields.json"] = json.dumps({"n": 2, "d": 2, "fields": constants})
    files["terminal.json"] = json.dumps({"family": "affine", "matrix": [[1.0, 2.0]], "offset": [0.5]})
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    driver, report = tmp_path / "driver.json", tmp_path / "report.json"
    assert main(["sig", "--path", str(tmp_path / "path.csv"), "--gamma", "0.5", "--out", str(driver)]) == 0
    assert main(["verify", "transport", "--driver", str(driver), "--fields", str(tmp_path / "fields.json"),
                 "--terminal", str(tmp_path / "terminal.json"), "--report", str(report)]) == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(report.read_text(), parse_constant=refuse)
    assert payload["passed"] is True
    assert [(c["slope"], c["exact"]) for c in payload["checks"]] == [(None, True)] * 7


def test_verify_continuity_report(workspace, tmp_path):
    report_path = tmp_path / "creport.json"
    assert main([
        "verify", "continuity", "--driver", str(workspace["driver"]),
        "--fields", str(workspace["fields"]), "--mu", str(workspace["particles"]),
        "--phis", str(workspace["phis"]), "--time-points", "65",
        "--mesh", str(1.0 / 64.0), "--report", str(report_path),
    ]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True


def test_verify_duality_and_failure_exit_code(workspace, tmp_path):
    report_path = tmp_path / "dreport.json"
    base = [
        "verify", "duality", "--driver", str(workspace["driver"]),
        "--fields", str(workspace["fields"]), "--terminal", str(workspace["terminal"]),
        "--mu", str(workspace["particles"]), "--time-points", "4",
        "--mesh", "0.01", "--report", str(report_path),
    ]
    assert main(base + ["--duality-tol", "1e-3"]) == 0
    # An absurd tolerance forces a verification failure: exit code 1.
    assert main(base + ["--duality-tol", "1e-30"]) == 1
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is False


def test_threads_do_not_change_artifacts(workspace, tmp_path):
    # The worker pool must preserve output ordering: reports are
    # byte-identical across thread counts.
    reports = []
    for threads, name in [(1, "t1.json"), (3, "t3.json")]:
        report_path = tmp_path / name
        assert main([
            "verify", "duality", "--driver", str(workspace["driver"]),
            "--fields", str(workspace["fields"]), "--terminal", str(workspace["terminal"]),
            "--mu", str(workspace["particles"]), "--time-points", "3",
            "--mesh", "0.02", "--duality-tol", "1e-3",
            "--threads", str(threads), "--report", str(report_path),
        ]) == 0
        payload = json.loads(report_path.read_text())
        payload["config"].pop("threads")
        reports.append(json.dumps(payload["checks"], sort_keys=True))
    assert reports[0] == reports[1]


def test_selftest_fast_subset(tmp_path):
    report_path = tmp_path / "selftest.json"
    assert main([
        "selftest", "--fast", "--only", "0-driver-smoke,1-algebra,2-deshuffle",
        "--gamma", "0.5", "--report", str(report_path),
    ]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) >= 4


def test_malformed_json_exit_code(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"gamma": 0.5, "level": 2, "times": [0.0')
    code = main([
        "rde", "--driver", str(bad), "--fields", str(workspace["fields"]),
        "--x0", "0.0,0.0", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_file_exit_code(workspace, tmp_path):
    assert main([
        "rde", "--driver", str(tmp_path / "nope.json"), "--fields", str(workspace["fields"]),
        "--x0", "0.0,0.0", "--out", str(tmp_path / "x.csv"),
    ]) == 2


def test_blowup_exit_code(workspace, tmp_path, capsys):
    fields = tmp_path / "explode.json"
    fields.write_text(json.dumps({
        "n": 1, "d": 2,
        "fields": [
            {"family": "polynomial", "n_in": 1, "components": [[{"exponents": [2], "coeff": 40.0}]]},
            {"family": "polynomial", "n_in": 1, "components": [[{"exponents": [2], "coeff": 40.0}]]},
        ],
    }))
    code = main([
        "rde", "--driver", str(workspace["driver"]), "--fields", str(fields),
        "--x0", "4.0", "--mesh", "0.05", "--out", str(tmp_path / "boom.csv"),
    ])
    assert code == 3
    assert "cell" in capsys.readouterr().err
