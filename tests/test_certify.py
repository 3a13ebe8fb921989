"""Exact certificates of returned optima (``reference.certify``).

Every optimal answer on these sets is proved in rational arithmetic: the
oracle's witnesses of the suite draw, and the solver's answers under
auto, primal-first and dual-first on the suite draw and on the 120
standardized ``mixed-bounds`` problems.  An answer is certified when
K_B of its basis is exactly nonsingular, the exact sign violation lies
within the slack the answer was accepted at, and the float x and
objective agree with the exact ones to AGREE relative.
"""

from fractions import Fraction

import numpy as np
import pytest

from pdqp import (QpProblem, Shifts, SolveConfig, enumerate_solve,
                  solve_standard, standardize)
from pdqp import oracle
from pdqp.model import DEFAULT_TOL, bound_tol, inf_norm

from conftest import mixed_instances
from reference import certify

STRATEGIES = ("auto", "primal-first", "dual-first")
AGREE = 1e-9
# The tighter of the solver's two bound tests at its default tolerances.
SOLVER_SLACK = min(bound_tol(v, 0.0, DEFAULT_TOL, DEFAULT_TOL) for v in "xz")


def _failures(p, basic, x, objective, slack):
    """Why the float answer (x, objective) with basic set ``basic`` is not
    certified at zero shifts; an empty list when it is."""
    cert = certify(p, Shifts.zero(p.n), basic)
    if cert is None:
        return ["K_B is exactly singular"]
    out = []
    if cert.violation > slack:
        out.append(f"sign violation {float(cert.violation):.3e}")
    x_off = max((abs(Fraction(a) - e) for a, e in zip(x.tolist(), cert.x)),
                default=0)
    if x_off > AGREE * max([1, *map(abs, cert.x)]):
        out.append(f"x off the exact x by {float(x_off):.3e}")
    f_off = abs(Fraction(objective) - cert.objective)
    if f_off > AGREE * (1 + abs(cert.objective)):
        out.append(f"objective off the exact one by {float(f_off):.3e}")
    return out


def _witness_failures(p, sol):
    """``_failures`` of an optimal oracle answer, at the oracle's own sign
    slack."""
    slack = oracle.SIGN_TOL * max(1.0, inf_norm(sol.x), inf_norm(sol.z))
    return _failures(p, sol.witness, sol.x, sol.objective, slack)


def test_oracle_witnesses_of_the_suite_draw_are_certified(suite500,
                                                          suite500_oracle):
    checked = 0
    for i, (p, sol) in enumerate(zip(suite500, suite500_oracle)):
        if sol.status == "optimal":
            assert _witness_failures(p, sol) == [], i
            checked += 1
    assert checked == 211


def _solver_optima(problems, strategy):
    """(position, problem, solution) of each optimal answer of the
    solver."""
    for i, p in enumerate(problems):
        sol = solve_standard(p, SolveConfig(strategy=strategy))
        if sol.status == "optimal":
            yield i, p, sol


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_solver_optima_of_the_suite_draw_are_certified(suite500, strategy):
    checked = 0
    for i, p, sol in _solver_optima(suite500, strategy):
        assert _failures(p, sol.partition.basic, sol.iterate.x,
                         sol.objective, SOLVER_SLACK) == [], i
        checked += 1
    assert checked == 211


@pytest.fixture(scope="module")
def mixed_bounds():
    """The ``mixed-bounds`` workload's problems, standardized."""
    return [standardize(g).problem for g in mixed_instances(1, 120)]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_solver_optima_of_mixed_bounds_are_certified(mixed_bounds, strategy):
    # Most of these lie beyond the oracle's reach, the largest K_B has
    # dim 35.
    checked = 0
    for i, p, sol in _solver_optima(mixed_bounds, strategy):
        assert _failures(p, sol.partition.basic, sol.iterate.x,
                         sol.objective, SOLVER_SLACK) == [], i
        checked += 1
    assert checked == 104


def test_certificate_rejects_oracle_answers_off_the_exact_point(
        monkeypatch, suite500):
    # A boundary-point solve that is off by 1e-6 relative still passes
    # the oracle's sign tests; the certificate rejects every answer, by
    # its x and by its objective.
    solve = oracle.solve_boundary_point

    def off(*args):
        it = solve(*args)
        it.x += 1e-6 * (1.0 + np.abs(it.x))
        return it

    monkeypatch.setattr(oracle, "solve_boundary_point", off)
    rejected = 0
    for p in suite500[:40]:
        sol = enumerate_solve(p, Shifts.zero(p.n))
        if sol.status == "optimal":
            reasons = {why.split()[0] for why in _witness_failures(p, sol)}
            assert reasons == {"x", "objective"}
            rejected += 1
    assert rejected > 10


def test_certify_finds_an_exactly_singular_k_b():
    # Two equal columns of A with H = 0: K_B over both is singular.
    p = QpProblem(H=np.zeros((2, 2)), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0]]), b=np.array([1.0]),
                  c=np.array([1.0, 2.0]))
    assert certify(p, Shifts.zero(2), [0, 1]) is None
    assert certify(p, Shifts.zero(2), [0]).violation == 0
    assert _failures(p, [0, 1], np.array([0.5, 0.5]), 1.5,
                     SOLVER_SLACK) == ["K_B is exactly singular"]


def test_certify_measures_the_violation_of_a_non_optimal_basis(p1):
    # Basis {1} of p1: x = (0, 1), y = 1 and z_0 = -1 < 0.
    cert = certify(p1, Shifts.zero(2), [1])
    assert cert.x == [0, 1] and cert.y == [1] and cert.z == [-1, 0]
    assert cert.violation == 1
    assert cert.objective == Fraction(1, 2)
    assert _failures(p1, [1], np.array([0.0, 1.0]), 0.5,
                     SOLVER_SLACK) == ["sign violation 1.000e+00"]
