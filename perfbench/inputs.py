"""Seeded input files for the benchmark workloads.

Everything here is plain numpy: the program under test only ever sees the
files written by ``write_inputs``.  The same (spec, seed) always gives
byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np


def fbm_path(rng: np.random.Generator, hurst: float, dim: int, knots: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact-covariance fBm on a uniform grid of [0, 1] (Cholesky, O(knots^3))."""
    times = np.linspace(0.0, 1.0, knots)
    pos = times[1:]
    s, t = np.meshgrid(pos, pos, indexing="ij")
    cov = 0.5 * (s ** (2 * hurst) + t ** (2 * hurst) - np.abs(t - s) ** (2 * hurst))
    chol = np.linalg.cholesky(cov)
    values = np.vstack([np.zeros((1, dim)), chol @ rng.standard_normal((knots - 1, dim))])
    return times, values


def scaled_gaussian_path(rng: np.random.Generator, hurst: float, dim: int, knots: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent Gaussian increments scaled by h^H on a uniform grid of [0, 1]."""
    times = np.linspace(0.0, 1.0, knots)
    step = (1.0 / (knots - 1)) ** hurst
    incs = step * rng.standard_normal((knots - 1, dim))
    return times, np.vstack([np.zeros((1, dim)), np.cumsum(incs, axis=0)])


def path_csv(times: np.ndarray, values: np.ndarray) -> str:
    header = "t," + ",".join(f"x{j + 1}" for j in range(values.shape[1]))
    rows = [",".join(repr(float(v)) for v in (t, *row)) for t, row in zip(times, values)]
    return header + "\n" + "\n".join(rows) + "\n"


def trig_fields(rng: np.random.Generator, n: int, d: int, terms: int) -> dict:
    """d bounded trigonometric fields R^n -> R^n (no blow-up on any driver)."""
    def component():
        return [
            {"amp": float(rng.uniform(0.2, 0.6)),
             "wave": [float(w) for w in rng.normal(0.0, 1.0, n)],
             "phase": float(rng.uniform(0.0, 2.0 * np.pi))}
            for _ in range(terms)
        ]
    fields = [{"family": "trig", "n_in": n, "components": [component() for _ in range(n)]}
              for _ in range(d)]
    return {"n": n, "d": d, "fields": fields}


def _poly(terms: list[tuple[tuple[int, ...], float]]) -> list[dict]:
    return [{"exponents": list(e), "coeff": float(c)} for e, c in terms]


def linear_fields(rng: np.random.Generator, n: int, d: int) -> dict:
    """d affine polynomial fields x -> A x + b with small random A and b."""
    fields = []
    for _ in range(d):
        a = rng.normal(0.0, 0.4, (n, n))
        b = rng.normal(0.0, 0.2, n)
        comps = []
        for i in range(n):
            terms = [(tuple(int(k == j) for k in range(n)), a[i, j]) for j in range(n)]
            terms.append(((0,) * n, b[i]))
            comps.append(_poly(terms))
        fields.append({"family": "polynomial", "n_in": n, "components": comps})
    return {"n": n, "d": d, "fields": fields}


def quadratic_terminal(rng: np.random.Generator, n: int) -> dict:
    """g(x) = c_0 + <l, x> + sum_i q_i x_i^2 with q_i > 0."""
    terms = [((0,) * n, rng.normal())]
    for j in range(n):
        unit = tuple(int(k == j) for k in range(n))
        terms.append((unit, rng.normal(0.0, 0.5)))
        terms.append((tuple(2 * u for u in unit), rng.uniform(0.2, 0.8)))
    return {"family": "polynomial", "n_in": n, "components": [_poly(terms)]}


def test_functions(rng: np.random.Generator, n: int) -> dict:
    """phi = 1 first (the mass check reads it), then x_j and a random quadratic."""
    one = [((0,) * n, 1.0)]
    phis = [one] + [[(tuple(int(k == j) for k in range(n)), 1.0)] for j in range(n)]
    quad = [(tuple(int(k == j) + int(k == i) for k in range(n)), rng.normal())
            for i in range(n) for j in range(i, n)]
    phis.append(quad)
    return {"phis": [{"family": "polynomial", "n_in": n, "components": [_poly(p)]} for p in phis]}


def particles_csv(rng: np.random.Generator, n: int, count: int) -> tuple[str, float]:
    weights = rng.uniform(0.5, 1.5, count)
    points = rng.normal(0.0, 0.5, (count, n))
    header = "w," + ",".join(f"x{j + 1}" for j in range(n))
    rows = [",".join(repr(float(v)) for v in (w, *p)) for w, p in zip(weights, points)]
    return header + "\n" + "\n".join(rows) + "\n", float(weights.sum())


def queries_csv(rng: np.random.Generator, n: int, count: int, starts: int) -> str:
    """``count`` random query points sharing ``starts`` start times j/starts.

    The start times are fixed so that the solve work does not depend on the
    seed; only the query points do.
    """
    s_values = np.arange(starts) / starts
    header = "s," + ",".join(f"x{j + 1}" for j in range(n))
    rows = []
    for q in range(count):
        x = rng.normal(0.0, 0.5, n)
        rows.append(",".join(repr(float(v)) for v in (s_values[q % starts], *x)))
    return header + "\n" + "\n".join(rows) + "\n"


def write_inputs(spec: dict, seed: int, directory: str) -> dict:
    """Write every input file of one workload; return the paths and the
    facts the correctness checks need (driver values, total weight)."""
    rng = np.random.default_rng([seed, spec["salt"]])
    os.makedirs(directory, exist_ok=True)
    n, d = spec["n"], spec["d"]
    path = os.path.join
    files: dict = {}
    if spec["driver"] == "fbm":
        times, values = fbm_path(rng, spec["hurst"], d, spec["knots"])
    else:
        times, values = scaled_gaussian_path(rng, spec["hurst"], d, spec["knots"])
    values = spec.get("amplitude", 1.0) * values
    files["values"] = values
    files["path"] = path(directory, "path.csv")
    _write(files["path"], path_csv(times, values))
    if spec["fields"] == "trig":
        fields = trig_fields(rng, n, d, spec["trig_terms"])
    else:
        fields = linear_fields(rng, n, d)
    files["fields"] = path(directory, "fields.json")
    _write(files["fields"], json.dumps(fields))
    if spec.get("particles"):
        text, mass = particles_csv(rng, n, spec["particles"])
        files["mu"], files["mass"] = path(directory, "particles.csv"), mass
        _write(files["mu"], text)
        files["phis"] = path(directory, "phis.json")
        _write(files["phis"], json.dumps(test_functions(rng, n)))
    if spec.get("queries"):
        files["terminal"] = path(directory, "terminal.json")
        _write(files["terminal"], json.dumps(quadratic_terminal(rng, n)))
        files["query"] = path(directory, "queries.csv")
        _write(files["query"], queries_csv(rng, n, spec["queries"], spec["query_starts"]))
    x0 = rng.normal(0.0, 0.5, n)
    files["x0"] = ",".join(repr(float(v)) for v in x0)
    return files


def _write(file: str, text: str):
    with open(file, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
