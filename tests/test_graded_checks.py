"""Every forward graded check is one controlled-remainder check.

``check_controlled``, ``ito_check`` and ``verify_continuity`` each turn
controlled remainders into order checks through exactly one call of
``controlled._remainder_checks``; ``verify_transport``, whose expansion
runs backward, never calls it.  Both rpde verifiers reject a time grid
that does not increase strictly, naming the first bad index, before any
solve.
"""

import numpy as np
import pytest

from roughkit import controlled, rde, rpde
from roughkit.controlled import check_controlled
from roughkit.functions import PolynomialFunction
from roughkit.rde import VectorFieldSystem, ito_check, solve_rde
from roughkit.roughpath import lift_pl, sample_fbm
from roughkit.rpde import FlowSolutionOracle, ParticleMeasure, TransportProblem, push_measure
from roughkit.rpde import verify_continuity, verify_transport


@pytest.fixture(scope="module")
def setup():
    driver = lift_pl(sample_fbm(H=0.6, d=2, knots=17, seed=5), gamma=0.4)
    fields = VectorFieldSystem([
        PolynomialFunction(2, [{(0, 0): 0.3, (1, 0): -0.2}, {(0, 1): 0.1}]),
        PolynomialFunction(2, [{(0, 1): 0.2}, {(0, 0): -0.1, (1, 0): 0.25}]),
    ])
    phi = PolynomialFunction(2, [{(2, 0): 1.0, (0, 1): 0.5}])
    problem = TransportProblem(fields=fields, terminal=phi, driver=driver)
    solution = solve_rde(np.array([0.2, -0.1]), fields, driver, driver.times)
    mu = ParticleMeasure(np.array([[0.1, 0.2], [-0.3, 0.0]]), np.array([1.0, 2.0]))
    return driver, fields, phi, problem, solution, mu


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``_remainder_checks`` per calling function, read through
    every module that imports it."""
    seen = []
    original = controlled._remainder_checks

    def spy(prefix, *args):
        seen.append(prefix)
        return original(prefix, *args)

    for module in (controlled, rde, rpde):
        monkeypatch.setattr(module, "_remainder_checks", spy)
    return seen


def test_each_forward_check_runs_the_remainder_checks_once(setup, calls):
    driver, fields, phi, problem, solution, mu = setup
    time_grid = np.linspace(0.0, 1.0, 33)
    evolution = push_measure(fields, driver, mu, time_grid, mesh=1.0 / 32.0)
    runs = {
        "remainder": lambda: check_controlled(solution.path),
        "ito": lambda: ito_check(phi, solution).graded,
        "continuity": lambda: verify_continuity(fields, driver, evolution, [phi], time_grid).checks,
    }
    for prefix, run in runs.items():
        calls.clear()
        checks = run()
        assert calls == [prefix]
        assert all(c.name.startswith(f"{prefix}[") for c in checks.values())
    calls.clear()
    oracle = FlowSolutionOracle(problem, mesh=1.0 / 16.0)
    verify_transport(problem, oracle, [np.array([0.0, 0.1])], np.linspace(0.0, 1.0, 17))
    assert calls == []


BAD_GRIDS = {
    "repeated": (np.concatenate([np.linspace(0.0, 0.5, 9), np.linspace(0.5, 1.0, 9)]), 9),
    "decreasing": (np.linspace(1.0, 0.0, 17), 1),
    "one step back": (np.linspace(0.0, 1.0, 17)[[0, 1, 3, 2, *range(4, 17)]], 3),
}


@pytest.mark.parametrize("verifier", ["transport", "continuity"])
@pytest.mark.parametrize("case", sorted(BAD_GRIDS))
def test_a_grid_that_does_not_increase_strictly_is_rejected(setup, verifier, case):
    driver, fields, phi, problem, _, mu = setup
    grid, index = BAD_GRIDS[case]

    def never(*args):
        raise AssertionError("solved before the grid was checked")

    message = rf"^time grid must increase strictly, but index {index} \({grid[index]:.6g}\) does not$"
    with pytest.raises(ValueError, match=message):
        if verifier == "transport":
            verify_transport(problem, never, [np.array([0.0, 0.1])], grid)
        else:
            verify_continuity(fields, driver, never, [phi], grid)
