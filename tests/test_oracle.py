import itertools
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdqp import Iterate, Partition, QpProblem, Shifts, enumerate_solve
from pdqp import oracle
from pdqp.kkt import (KktBasis, factor_kb, solve_base_primal,
                      solve_intermediate_primal)
from pdqp.oracle import (OracleBudgetError, _in_cone, dual_set_nonempty,
                         primal_set_nonempty)

from conftest import held_basis, random_instances
from propositions import (check_direction_propositions,
                          check_objective_identity, objective_change,
                          partition_for_direction)
from reference import _gauss_solve, certify


def test_enumerate_p1(p1):
    sol = enumerate_solve(p1, Shifts.zero(2))
    assert sol.status == "optimal"
    assert_allclose(sol.x, [0.5, 0.5], atol=1e-12)
    assert sol.objective == pytest.approx(0.25)


def test_enumerate_p2_witness(p2):
    sol = enumerate_solve(p2, Shifts.zero(2))
    assert sol.status == "optimal"
    assert_allclose(sol.x, [0.0, 1.0], atol=1e-12)
    assert sol.objective == pytest.approx(0.5)
    assert sol.witness == [1]


def test_enumerate_infeasible(p_infeasible):
    sol = enumerate_solve(p_infeasible, Shifts.zero(2))
    assert sol.status == "primal_infeasible"
    assert not sol.primal_feasible
    assert sol.dual_feasible


def test_enumerate_unbounded(p_unbounded):
    sol = enumerate_solve(p_unbounded, Shifts.zero(2))
    assert sol.status == "dual_infeasible"
    assert sol.primal_feasible
    assert not sol.dual_feasible


def test_enumerate_budget_guard():
    n = 17
    p = QpProblem(H=np.eye(n), M=np.zeros((1, 1)), A=np.ones((1, n)),
                  b=np.ones(1), c=np.zeros(n))
    with pytest.raises(OracleBudgetError):
        enumerate_solve(p, Shifts.zero(n))


def test_enumerate_degenerate_witnesses_agree():
    # Multiple optimal bases share the objective.
    p = QpProblem(H=np.zeros((2, 2)), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0]]), b=np.array([1.0]), c=np.ones(2))
    sol = enumerate_solve(p, Shifts.zero(2))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)


def test_gauss_solve_matches_numpy():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        assert_allclose(_gauss_solve(a, b), np.linalg.solve(a, b),
                        atol=1e-9)


def test_cone_membership_basics():
    gens = np.array([[1.0, 0.0], [0.0, 1.0]]).T
    none = np.zeros((2, 0))
    assert _in_cone(np.array([2.0, 3.0]), gens, none)
    assert not _in_cone(np.array([-1.0, 0.0]), gens, none)
    # span part absorbs any sign
    assert _in_cone(np.array([-1.0, 0.0]), none, gens[:, :1])


def _in_cone_by_subsets(target, cone_gens, free_gens,
                        tol=oracle.CONE_TOL):
    """The reference for ``_in_cone``: project out the span, then try an
    unconstrained least-squares fit on every support subset of at most d
    projected generators (Caratheodory), accepting lam >= -tol * scale."""
    d = target.shape[0]
    if d == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(target))),
                float(np.max(np.abs(cone_gens))) if cone_gens.size else 0.0,
                float(np.max(np.abs(free_gens))) if free_gens.size else 0.0)
    if free_gens.size:
        u, sv, _ = np.linalg.svd(free_gens, full_matrices=False)
        rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0] if sv.size else 0.0)))
        basis = u[:, :rank]
        proj = lambda v: v - basis @ (basis.T @ v)
    else:
        proj = lambda v: v
    t = proj(target)
    if float(np.max(np.abs(t), initial=0.0)) <= tol * scale:
        return True
    if cone_gens.size == 0:
        return False
    g = np.column_stack([proj(cone_gens[:, j])
                         for j in range(cone_gens.shape[1])])
    k = g.shape[1]
    for size in range(1, min(k, d) + 1):
        for subset in itertools.combinations(range(k), size):
            gs = g[:, subset]
            lam, *_ = np.linalg.lstsq(gs, t, rcond=None)
            if np.any(lam < -tol * scale):
                continue
            if float(np.max(np.abs(gs @ lam - t))) <= tol * scale:
                return True
    return False


def _random_cone(rng, d, k):
    """k generators in R^d: random columns, some replaced by a zero
    column, a duplicate, or a positive or negative multiple of another."""
    g = rng.normal(size=(d, k))
    for j in range(1, k):
        kind = rng.integers(0, 8)
        if kind == 0:
            g[:, j] = 0.0
        elif kind == 1:
            g[:, j] = g[:, rng.integers(0, j)]
        elif kind == 2:
            g[:, j] = rng.choice([-2.5, 0.5, 3.0]) * g[:, rng.integers(0, j)]
    return g


def test_in_cone_matches_subset_enumeration_on_random_cones():
    rng = np.random.default_rng(20)
    verdicts = {True: 0, False: 0}
    for d, k, rep in itertools.product(range(9), range(11), range(2)):
        g = _random_cone(rng, d, k)
        # Free generators of every rank 0..d, over rank columns or over
        # rank + 1 of which one depends on the others (for rank 0: no
        # column, or a zero one); and, up to 6 cone generators, a zero
        # block of 2 or 3 columns.
        rank = (k + rep) % (d + 1)
        free = rng.normal(size=(d, rank)) @ rng.normal(size=(rank,
                                                              rank + rep))
        zero = np.zeros((d, 2 + rep))
        lam = np.abs(rng.normal(size=k)) + 0.1
        face = lam * (rng.random(k) < 0.5)
        ray = np.zeros(k)
        if k:
            ray[rng.integers(0, k)] = 2.0
        inside = g @ lam
        for target in (inside, g @ face, g @ ray, -inside - 0.1,
                       rng.normal(size=d),
                       inside + free @ rng.normal(size=free.shape[1])):
            for span in (free, zero)[:1 + (k <= 6)]:
                want = _in_cone_by_subsets(target, g, span)
                assert _in_cone(target, g, span) == want, (d, k, span.shape)
                verdicts[want] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_in_cone_matches_subset_enumeration_on_generator_calls(
        suite500_draw):
    # Every cone test that random_instances makes to certify its
    # infeasible draws, the suite500 workload's instance set.
    _, calls, _ = suite500_draw
    assert len(calls) > 1000
    for args, got in calls:
        assert got == _in_cone_by_subsets(*args)


def test_in_cone_iteration_cap_is_an_inconsistency(monkeypatch):
    # A run that never settles on its passive set ends in the error, not
    # in a loop: here every least-squares fit comes back negative.
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda a, b, rcond: (-np.ones(a.shape[1]),))
    gens = np.eye(2)
    with pytest.raises(oracle.OracleInconsistencyError, match="converge"):
        _in_cone(np.array([1.0, 2.0]), gens, np.zeros((2, 0)))


def test_import_leaves_scipy_optimize_unloaded():
    # The oracle's NNLS is numpy's: importing scipy.optimize would cost
    # every process that imports pdqp about 20 MB and 0.1 s.
    code = "import sys, pdqp; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(oracle.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_feasible_set_tests(p1, p_infeasible, p_unbounded):
    z = Shifts.zero(2)
    assert primal_set_nonempty(p1, z)
    assert dual_set_nonempty(p1, z)
    assert not primal_set_nonempty(p_infeasible, z)
    assert not dual_set_nonempty(p_unbounded, z)


def test_shifted_feasibility_changes_with_q(p_infeasible):
    # x1 + x2 = -1 becomes feasible once the bounds are shifted by one.
    s = Shifts(np.ones(2), np.zeros(2))
    assert primal_set_nonempty(p_infeasible, s)


def test_direction_propositions_base_case(p1):
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_base_primal(p1, part, held_basis(p1, [1]), 0)
    rep = check_direction_propositions(p1, part, d)
    assert rep.ok, rep.failures()
    assert any(name == "case_kl_nonsingular" for name, _, _ in rep.checks)


def test_direction_propositions_singular_kl(p_unbounded):
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_base_primal(p_unbounded, part, held_basis(p_unbounded, [1]), 0)
    assert d.dz_l == 0.0
    rep = check_direction_propositions(p_unbounded, part, d)
    assert rep.ok, rep.failures()
    names = [name for name, _, _ in rep.checks]
    assert "kl_null_dimension" in names


def test_direction_propositions_singular_kb(p1):
    p = QpProblem(H=p1.H, M=p1.M, A=p1.A, b=np.array([-1.0]), c=p1.c)
    part = Partition(basic=[], nonbasic=[0], freed=1)
    d = solve_intermediate_primal(p, part, 1, KktBasis(p))
    assert d.dx_l == 0.0
    rep = check_direction_propositions(p, part, d)
    assert rep.ok, rep.failures()
    names = [name for name, _, _ in rep.checks]
    assert "case_kb_singular" in names


def test_direction_propositions_random():
    from pdqp.kkt import find_soc_basis
    rng = np.random.default_rng(4)
    for p in random_instances(19, 25):
        part = find_soc_basis(p, KktBasis(p))
        if not part.nonbasic:
            continue
        l = part.nonbasic[int(rng.integers(len(part.nonbasic)))]
        work = part.copy()
        work.free_index(l)
        d = solve_base_primal(p, work, held_basis(p, work.basic), l)
        rep = check_direction_propositions(p, work, d)
        assert rep.ok, rep.failures()


def test_partition_for_direction_roundtrip(p1):
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_base_primal(p1, part, held_basis(p1, [1]), 0)
    rebuilt = partition_for_direction(p1, d)
    assert rebuilt.basic == [1]
    assert rebuilt.freed == 0
    assert rebuilt.nonbasic == []


def test_objective_identity_hand_case(p1):
    # Base step on p1 from the dual-infeasible corner: f drops
    # 0.5 -> 0.25 at alpha = 1/2.
    it = Iterate(np.array([0.0, 1.0]), np.array([1.0]), np.array([-1.0, 0.0]))
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_base_primal(p1, part, held_basis(p1, [1]), 0)
    rep = check_objective_identity(p1, Shifts.zero(2), it, d, 0.5)
    assert rep.ok, rep.failures()
    pred, _ = objective_change(True, d.dx_l, d.dz_l, it.z[0], 0.5, 0.5)
    assert pred == pytest.approx(-0.25)


def test_objective_identity_zero_step(p1):
    it = Iterate(np.array([0.0, 1.0]), np.array([1.0]), np.array([-1.0, 0.0]))
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_base_primal(p1, part, held_basis(p1, [1]), 0)
    rep = check_objective_identity(p1, Shifts.zero(2), it, d, 0.0)
    assert rep.ok


def test_objective_identity_random_steps():
    from pdqp.driver import init_shifts
    from pdqp.kkt import find_soc_basis
    rng = np.random.default_rng(14)
    for p in random_instances(29, 15, kinds=("feasible",)):
        part = find_soc_basis(p, KktBasis(p))
        if not part.nonbasic:
            continue
        shifts, it = init_shifts(p, part, factor_kb(p, part.basic))
        l = part.nonbasic[0]
        work = part.copy()
        work.free_index(l)
        d = solve_base_primal(p, work, held_basis(p, work.basic), l)
        alpha = float(rng.uniform(0.0, 2.0))
        rep = check_objective_identity(p, shifts, it, d, alpha)
        assert rep.ok, rep.failures()


def test_row_rank_transfer_with_nonzero_pivot():
    # If [a_l a_k A_B -M] has full row rank and a dependency uses a_k with
    # a nonzero coefficient, dropping a_k keeps full row rank.
    rng = np.random.default_rng(21)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        nb = int(rng.integers(0, 3))
        al = rng.normal(size=m)
        ab = rng.normal(size=(m, nb))
        mm = np.zeros((m, m))
        ak = rng.normal(size=m)
        full = np.column_stack([al, ak, ab, -mm])
        if np.linalg.matrix_rank(full) < m:
            continue
        # build a dependency with nonzero a_k coefficient
        coeffs = rng.normal(size=1 + nb)
        resid = al * coeffs[0] + (ab @ coeffs[1:] if nb else 0.0)
        dxk = 1.0
        ak = -resid / dxk
        reduced = np.column_stack([al, ab, -mm])
        if np.linalg.matrix_rank(np.column_stack([al, ak, ab, -mm])) == m:
            assert np.linalg.matrix_rank(reduced) == m


def test_oracle_witness_of_p1_is_certified_exactly(p1):
    sol = enumerate_solve(p1, Shifts.zero(2))
    assert sol.status == "optimal"
    cert = certify(p1, Shifts.zero(2), sol.witness)
    assert cert.x == [Fraction(1, 2), Fraction(1, 2)]
    assert cert.violation == 0
