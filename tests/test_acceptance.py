"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass line (run pytest with -s to see them inline).
Criteria 1 through 5 share one batch of 500 randomly generated problems,
solved once by the combined pipeline with full tracing and once by the
enumeration oracle.
"""

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from pdqp import (GeneralQp, Partition, QpProblem, Shifts, SolveConfig,
                  check_optimality, enumerate_solve, solve_pdqp,
                  solve_standard, standardize)
from pdqp.kkt import (KktBasis, KktFactorization, factor_kb, find_soc_basis,
                      solve_base_primal, solve_intermediate_primal)
from pdqp.cli import parse_problem, profile, run

from conftest import held_basis
from propositions import (check_direction_propositions, objective_change,
                          partition_for_direction)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@dataclass
class SuiteRun:
    problem: QpProblem
    solution: object
    oracle: object
    records: list = field(default_factory=list)


@dataclass
class Suite:
    runs: list
    elapsed: float


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def suite(suite500, suite500_oracle):
    t0 = time.perf_counter()
    runs = []
    for p, orc in zip(suite500, suite500_oracle):
        records = []
        sol = solve_standard(p, SolveConfig(trace=records.append,
                                            check_invariants=True))
        runs.append(SuiteRun(problem=p, solution=sol, oracle=orc,
                             records=records))
    return Suite(runs=runs, elapsed=time.perf_counter() - t0)


def test_criterion_1_oracle_equivalence(suite):
    assert len(suite.runs) >= 500
    mismatched = [r for r in suite.runs
                  if r.solution.status != r.oracle.status]
    assert not mismatched, [
        (r.solution.status, r.oracle.status) for r in mismatched]
    off = []
    for r in suite.runs:
        if r.oracle.status != "optimal":
            continue
        if abs(r.solution.objective - r.oracle.objective) \
                > 1e-7 * (1 + abs(r.oracle.objective)):
            off.append((r.solution.objective, r.oracle.objective))
    assert not off, off
    assert suite.elapsed < 60.0, f"suite took {suite.elapsed:.1f}s"
    n_opt = sum(r.oracle.status == "optimal" for r in suite.runs)
    n_pinf = sum(r.oracle.status == "primal_infeasible" for r in suite.runs)
    n_dinf = sum(r.oracle.status == "dual_infeasible" for r in suite.runs)
    _report(1, f"{len(suite.runs)} instances "
               f"({n_opt} optimal, {n_pinf} primal-infeasible, "
               f"{n_dinf} dual-infeasible), solved in "
               f"{suite.elapsed:.1f}s, matched the oracle")


def test_criterion_2_duality_gap_identity(suite):
    checked = 0
    for r in suite.runs:
        for lg in r.solution.stage_log:
            if lg.status != "optimal":
                continue
            gap = abs(lg.f_primal - lg.f_dual + lg.q_dot_r)
            assert gap <= 1e-9 * (1 + abs(lg.f_primal)), (lg, gap)
            checked += 1
    _report(2, f"gap identity held on {checked} stage optima")


def test_criterion_3_monotone_objective_identity(suite):
    checked = 0
    for r in suite.runs:
        for rec in r.records:
            if not np.isfinite(rec.step.alpha):
                continue
            checked += 1
            primal = rec.method == "primal"
            f0, f1 = ((rec.f_primal_before, rec.f_primal) if primal
                      else (rec.f_dual_before, rec.f_dual))
            pred, tol = objective_change(primal, rec.direction.dx_l,
                                         rec.direction.dz_l, rec.violation,
                                         rec.step.alpha, f0)
            actual = f1 - f0
            assert abs(actual - pred) <= tol, (rec, pred, actual)
            if primal:
                assert f1 <= f0 + 1e-9 * (1 + abs(f0))
            else:
                assert f1 >= f0 - 1e-9 * (1 + abs(f0))
    _report(3, f"objective identities held on {checked} subiterations")


def test_criterion_4_basis_chain(suite):
    # Internal singularities raise during the solves, so reaching here
    # with traces means every in-flight factorization succeeded; the
    # final partition of every run must factor as well.
    refactored = 0
    for r in suite.runs:
        f = factor_kb(r.problem, r.solution.partition.basic)
        assert isinstance(f, KktFactorization), r.solution.partition
        refactored += 1
    subiters = sum(len(r.records) for r in suite.runs)
    _report(4, f"{refactored} final bases factored; no singular reports "
               f"across {subiters} subiterations")


def test_criterion_5_direction_propositions(suite, p_unbounded, p1):
    checked = 0
    for r in suite.runs:
        for rec in r.records:
            d = rec.direction
            part = partition_for_direction(r.problem, d)
            rep = check_direction_propositions(r.problem, part, d)
            assert rep.ok, (rep.failures(), rec)
            checked += 1

    # constructed singular-K_l case: dz_l = 0 with a one-dimensional
    # null space
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_base_primal(p_unbounded, part, held_basis(p_unbounded, [1]), 0)
    assert d.dz_l == 0.0
    rep = check_direction_propositions(p_unbounded, part, d)
    assert rep.ok, rep.failures()
    assert any(name == "kl_null_dimension" and passed
               for name, passed, _ in rep.checks)

    # constructed singular-K_B case: dx_l = 0
    p = QpProblem(H=p1.H, M=p1.M, A=p1.A, b=np.array([-1.0]), c=p1.c)
    part = Partition(basic=[], nonbasic=[0], freed=1)
    d = solve_intermediate_primal(p, part, 1, KktBasis(p))
    assert d.dx_l == 0.0
    rep = check_direction_propositions(p, part, d)
    assert rep.ok, rep.failures()
    assert any(name == "case_kb_singular" and passed
               for name, passed, _ in rep.checks)
    _report(5, f"direction propositions held on {checked} directions plus "
               f"both constructed singular cases")


def test_criterion_6_infeasibility_certificates(p_infeasible, p_unbounded):
    si = solve_standard(p_infeasible)
    assert si.status == "primal_infeasible"
    assert si.subiterations <= 2, si.subiterations
    su = solve_standard(p_unbounded)
    assert su.status == "dual_infeasible"
    assert su.subiterations <= 2, su.subiterations
    _report(6, f"certificates in {si.subiterations} and "
               f"{su.subiterations} subiterations")


def test_criterion_7_scale_band(tmp_path):
    g = parse_problem(PROBLEMS / "bqp1var.qpt")
    sol = solve_pdqp(g)
    iters = sum(lg.iterations for lg in sol.stage_log)
    assert sol.status == "optimal"
    assert iters <= 2, iters

    rng = np.random.default_rng(500)
    n, m = 500, 20
    main = 2.0 + rng.random(n)
    off = 0.4 * rng.random(n - 1)
    H = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    A = rng.normal(size=(m, n)) / np.sqrt(n)
    xstar = np.abs(rng.normal(size=n)) + 0.05
    active = rng.choice(n, size=10, replace=False)
    xstar[active] = 0.0
    zstar = np.zeros(n)
    zstar[active] = np.abs(rng.normal(size=10)) + 0.1
    ystar = rng.normal(size=m)
    c = -(H @ xstar) + A.T @ ystar + zstar
    rows = A @ xstar
    big = GeneralQp(Hhat=H, Ahat=A, c=c,
                    lower=np.concatenate([np.zeros(n), rows]),
                    upper=np.concatenate([np.full(n, np.inf), rows]),
                    name="big500")
    from pdqp.cli import emit_problem
    path = tmp_path / "big500.qpt"
    emit_problem(big, path)
    t0 = time.perf_counter()
    rows_out, code = run([path], tmp_path / "out")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert rows_out[0].status == "optimal"
    assert elapsed < 10.0, f"500-variable solve took {elapsed:.1f}s"
    _report(7, f"bqp1var in {iters} iteration(s); 500-variable problem "
               f"through the CLI in {elapsed:.1f}s")


def test_criterion_8_termination_tolerances(p1, p2):
    defaults = SolveConfig(opt_tol=1e-6, fea_tol=1e-6)
    for p in (p1, p2):
        sol = solve_standard(p, defaults)
        assert sol.status == "optimal"
        assert check_optimality(p, Shifts.zero(p.n), sol.iterate,
                                1e-6, 1e-6).optimal
    tight = SolveConfig(opt_tol=1e-10, fea_tol=1e-10)
    fixtures = [p1, p2]
    for name in ("rand5", "boxed", "lpcorner"):
        g = parse_problem(PROBLEMS / f"{name}.qpt")
        std = standardize(g)
        sol = solve_standard(std.problem, tight)
        assert sol.status == "optimal"
        assert check_optimality(std.problem, Shifts.zero(std.problem.n),
                                sol.iterate, 1e-10, 1e-10).optimal
    for p in fixtures:
        sol = solve_standard(p, tight)
        assert sol.status == "optimal"
        assert check_optimality(p, Shifts.zero(p.n), sol.iterate,
                                1e-10, 1e-10).optimal
    _report(8, "scaled test passed at 1e-6 and at 1e-10 on "
               "well-conditioned fixtures")


def test_criterion_9_profile_tooling(tmp_path):
    header = ("name,n,m,status,objective,strategy,stage1_iters,"
              "stage2_iters,subiters,millis")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(header + "\np1,2,1,optimal,1,auto,2,0,2,1\n"
                          "p2,2,1,optimal,1,auto,8,0,8,1\n")
    b.write_text(header + "\np1,2,1,optimal,1,auto,4,0,4,1\n"
                          "p2,2,1,optimal,1,auto,4,0,4,1\n")
    data = profile(a, b, tmp_path / "prof.txt")
    assert data["a"] == [(1.0, 0.5), (2.0, 1.0)]
    assert data["b"] == [(1.0, 0.5), (2.0, 1.0)]
    assert data["factors"] == [("p1", "-1"), ("p2", "1")]
    _report(9, "profile steps and outperforming factors match the "
               "hand computation")


def test_criterion_10_temporary_bounds():
    g = parse_problem(PROBLEMS / "tempbound.qpt")
    std = standardize(g)
    # Discovery makes the free column 1 basic; the start basis of the
    # remaining non-fixed columns leaves it to a temporary bound.
    p = std.problem
    assert 1 in find_soc_basis(p, KktBasis(p)).basic
    sol = solve_pdqp(g, SolveConfig(check_invariants=True,
                                    initial_basis=[0, 2]))
    assert sol.status == "optimal"
    # The free column 1 starts nonbasic with its dual z_1 = -r_1 recorded
    # in the shift.
    assert sorted(p.free - {0, 2}) == [1]
    recorded = -sol.standardized.shifts_initial.r[1]
    assert recorded != 0.0
    assert abs(sol.standardized.iterate.z[1]) <= 1e-9
    orc = enumerate_solve(std.problem, Shifts.zero(std.problem.n))
    assert orc.status == "optimal"
    assert abs(sol.standardized.objective - orc.objective) \
        <= 1e-7 * (1 + abs(orc.objective))
    _report(10, f"temporary bound with recorded dual "
                f"{recorded:+.2f} drained to zero at the "
                f"oracle optimum")
