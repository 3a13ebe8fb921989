from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.linalg import blas

from pdqp import (GeneralQp, Iterate, KktInternalError, Partition, QpProblem,
                  Shifts, SolveConfig, enumerate_solve, solve_pdqp,
                  solve_standard, standardize)
from pdqp import kkt, model, steps
from pdqp.kkt import (KktBasis, KktFactorization, _bunch_kaufman, build_kb,
                      factor_kb, find_soc_basis, recover_z_nonbasic,
                      solve_base_primal, solve_boundary_point,
                      solve_intermediate_primal)
from pdqp.model import index_mask, pivoted_cholesky

from conftest import (criterion7_instance, free_start_cases, held_basis,
                      mixed_instances, random_instances, scale_probe)
from reference import _gauss_solve
from workloads import LowRank, constructed_qp


@pytest.fixture
def p_lp():
    """H = 0, M = 0, A = [1 -1]: bare equality structure."""
    return QpProblem(H=np.zeros((2, 2)), M=np.zeros((1, 1)),
                     A=np.array([[1.0, -1.0]]), b=np.zeros(1),
                     c=np.array([-1.0, 0.0]))


def test_factor_kb_two_by_two(p1):
    f = factor_kb(p1, [1])
    assert isinstance(f, KktFactorization)
    assert_allclose(f.matrix, [[1.0, 1.0], [1.0, 0.0]])
    assert_allclose(f.solve(np.array([1.0, 1.0])), [1.0, 0.0])


@pytest.mark.parametrize("k", [np.array([[1.0, -3.0], [-3.0, 2.0]]),
                               np.array([[-0.0, 0.0], [0.0, -0.0]]),
                               np.array([[-0.0]]), np.zeros((0, 0))])
def test_max_abs_is_inf_norm_bit_for_bit(k):
    # A negative extreme entry, entries that are all +-0.0, and an empty K.
    got = KktFactorization(ldu=k, ipiv=None, matrix=k, inv_norm=0.0).max_abs
    assert np.float64(got).tobytes() == np.float64(model.inf_norm(k)).tobytes()


def test_factor_kb_singular_empty_basis(p_lp):
    assert factor_kb(p_lp, []) is None


def test_factor_kb_full_basis(p1):
    f = factor_kb(p1, [0, 1])
    assert isinstance(f, KktFactorization)
    k = f.matrix
    assert_allclose(k, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    rhs = np.array([1.0, 2.0, 3.0])
    assert_allclose(k @ f.solve(rhs), rhs, atol=1e-12)


def test_singular_kb_null_vector_splits():
    # Null vector (u, -v) of a singular K_B satisfies H_BB u = 0, A_B u = 0
    # and A_B' v = 0, M v = 0 separately.
    p = QpProblem(H=np.zeros((3, 3)), M=np.zeros((2, 2)),
                  A=np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                  b=np.zeros(2), c=np.zeros(3))
    assert factor_kb(p, [0, 1, 2]) is None
    kb = build_kb(p, [0, 1, 2])
    null = np.linalg.svd(kb)[2][-1]
    assert np.max(np.abs(kb @ null)) < 1e-9
    u = null[:3]
    v = -null[3:]
    hbb = p.H
    ab = p.A
    assert np.max(np.abs(hbb @ u)) < 1e-9
    assert np.max(np.abs(ab @ u)) < 1e-9
    assert np.max(np.abs(ab.T @ v)) < 1e-9
    assert np.max(np.abs(p.M @ v)) < 1e-9


def test_psd_diagonal_block_controls_dependence():
    # For PSD H, H_11 u = 0 already forces H_12' u = 0.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, k = 6, 3
        g = rng.normal(size=(4, n))
        u = rng.normal(size=k)
        # Make the leading block singular along u without losing PSD.
        g[:, :k] -= np.outer(g[:, :k] @ u, u) / (u @ u)
        h = g.T @ g
        assert np.max(np.abs(h[:k, :k] @ u)) < 1e-10 * max(1, np.max(np.abs(h)))
        assert np.max(np.abs(h[k:, :k] @ u)) < 1e-7 * max(1, np.max(np.abs(h)))


def test_find_soc_basis_p1(p1):
    part = find_soc_basis(p1, KktBasis(p1))
    assert isinstance(factor_kb(p1, part.basic), KktFactorization)
    assert part.basic == [0, 1]


def test_find_soc_basis_identity_hessian():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n, m = 6, 2
        p = QpProblem(H=np.eye(n), M=np.zeros((m, m)),
                      A=rng.normal(size=(m, n)), b=np.zeros(m), c=np.zeros(n))
        assert find_soc_basis(p, KktBasis(p)).basic == list(range(n))


def test_find_soc_basis_defers_dependent_column():
    p = QpProblem(H=np.zeros((2, 2)), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0]]), b=np.zeros(1), c=np.zeros(2))
    part = find_soc_basis(p, KktBasis(p))
    assert len(part.basic) == 1
    assert len(part.nonbasic) == 1
    assert isinstance(factor_kb(p, part.basic), KktFactorization)
    # The full basis would be singular: H_BB = 0 with a single row.
    assert factor_kb(p, [0, 1]) is None


def test_find_soc_basis_random_postcondition():
    for p in random_instances(77, 20):
        part = find_soc_basis(p, KktBasis(p))
        assert isinstance(factor_kb(p, part.basic), KktFactorization)
        assert sorted(part.basic + part.nonbasic) \
            == list(range(p.n))


def test_solve_base_primal_hand_case(p1):
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_base_primal(p1, part, held_basis(p1, [1]), 0)
    assert_allclose(d.dx, [1.0, -1.0])
    assert_allclose(d.dy, [-1.0])
    assert d.dz_l == pytest.approx(2.0)


def _recording_build_kb(monkeypatch):
    built = []
    original = kkt.build_kb

    def recording_build_kb(p, basic):
        built.append(list(basic))
        return original(p, basic)

    monkeypatch.setattr(kkt, "build_kb", recording_build_kb)
    return built


def test_counterpart_assembled_only_inside_noise_band(p1, monkeypatch):
    # dz_l = 2 and dx_l = 0.5 are far from zero: neither solve may build
    # the counterpart matrix (K_l for the base solve, K_B for the
    # intermediate one); each assembles only its own fresh matrix, and a
    # solve that reuses a held factorization of its matrix none.
    held = held_basis(p1, [1])
    built = _recording_build_kb(monkeypatch)
    part = Partition(basic=[1], nonbasic=[], freed=0)
    assert solve_base_primal(p1, part, held, 0).dz_l == \
        pytest.approx(2.0)
    assert built == []
    assert solve_base_primal(p1, part, KktBasis(p1), 0).dz_l == \
        pytest.approx(2.0)
    assert built == [[1]]
    assert solve_intermediate_primal(p1, part, 0, KktBasis(p1)).dx_l == \
        pytest.approx(0.5)
    assert built == [[1], [0, 1]]


def test_solve_base_primal_singular_kl_case(p_lp):
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_base_primal(p_lp, part, held_basis(p_lp, [1]), 0)
    assert_allclose(d.dx, [1.0, 1.0])
    assert d.dz_l == 0.0
    # the singular case zeroes the multiplier and dual parts identically
    assert np.all(d.dy == 0.0)
    assert np.all(d.dz == 0.0)


def test_solve_base_primal_decoupled_column():
    p = QpProblem(H=np.diag([1.0, 2.0]), M=np.zeros((1, 1)),
                  A=np.array([[0.0, 1.0]]), b=np.zeros(1), c=np.zeros(2))
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_base_primal(p, part, held_basis(p, [1]), 0)
    assert_allclose(d.dx, [1.0, 0.0])
    assert_allclose(d.dy, [0.0])
    assert d.dz_l == pytest.approx(p.H[0, 0])


def test_solve_intermediate_base_of_dual(p1):
    part = Partition(basic=[], nonbasic=[0], freed=1)
    d = solve_intermediate_primal(p1, part, 1, KktBasis(p1))
    assert d.dx_l == pytest.approx(0.0)
    assert_allclose(d.dy, [-1.0])
    assert d.dz[0] == pytest.approx(1.0)


def test_solve_intermediate_three_by_three(p1):
    part = Partition(basic=[1], nonbasic=[], freed=0)
    kl = build_kb(p1, [0, 1])
    assert_allclose(kl, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    d = solve_intermediate_primal(p1, part, 0, KktBasis(p1))
    assert d.dx_l == pytest.approx(0.5)
    assert d.dx[1] == pytest.approx(-0.5)
    assert_allclose(d.dy, [-0.5])
    assert d.dz_l == 1.0
    w = np.array([d.dx_l, d.dx[1], -d.dy[0]])
    assert_allclose(kl @ w, [1.0, 0.0, 0.0], atol=1e-12)


def test_solve_intermediate_decoupled():
    p = QpProblem(H=np.diag([1.0, 1.0]), M=np.zeros((1, 1)),
                  A=np.array([[0.0, 1.0]]), b=np.zeros(1), c=np.zeros(2))
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_intermediate_primal(p, part, 0, KktBasis(p))
    assert d.dx_l == pytest.approx(1.0)
    assert d.dx[1] == pytest.approx(0.0)
    assert_allclose(d.dy, [0.0], atol=1e-15)


def test_solve_intermediate_raises_on_singular_kl(p_lp):
    part = Partition(basic=[1], nonbasic=[], freed=0)
    # The message lists K_l's variables as a Python list, not a numpy
    # array.
    with pytest.raises(KktInternalError,
                       match=r"singular over variables \[0, 1\]$"):
        solve_intermediate_primal(p_lp, part, 0, KktBasis(p_lp))


def _block_kkt(p, order):
    """K_B assembled block by block, the reference for ``build_kb``."""
    hbb = p.H[np.ix_(order, order)]
    ab = p.A[:, order]
    return np.vstack([np.hstack([hbb, ab.T]), np.hstack([ab, -p.M])])


def test_build_kb_and_kl_equal_block_assembly_bit_for_bit():
    rng = np.random.default_rng(17)
    # Random standard-form problems, and a standardized criterion-7 one.
    # H_BB is one slice copy over a run of consecutive indices (the full
    # set, a prefix, an interior run) and a gather over any other set,
    # a permuted run among them.
    std = standardize(criterion7_instance(12, 3, 4, 5)[0]).problem
    for p in random_instances(20260810, 40) + [std]:
        lo, hi = sorted(rng.choice(p.n + 1, 2, replace=False).tolist())
        orders = [list(range(p.n)), list(range(hi)), list(range(lo, hi))]
        if p.n >= 4:
            orders.append([0, 2, 1, 3])
        for _ in range(3):
            orders.append(sorted(rng.choice(p.n, rng.integers(0, p.n + 1),
                                            replace=False).tolist()))
        for basic in orders:
            want = _block_kkt(p, basic)
            for got in (build_kb(p, basic),
                        build_kb(p, np.array(basic, dtype=np.intp))):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def _weakly_active_instance(seed, n, m, rank, strict, weak):
    """The criterion-7 construction with rank-``rank`` H = G'G/n, plus
    ``weak`` zeros of x* whose bound duals are zero as well.  Returns the
    problem and its optimal value."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(rank, n))
    h = g.T @ g / n
    a = rng.normal(size=(m, n)) / np.sqrt(n)
    xstar = np.abs(rng.normal(size=n)) + 0.05
    idx = rng.permutation(n)
    xstar[idx[:strict + weak]] = 0.0
    zstar = np.zeros(n)
    zstar[idx[:strict]] = np.abs(rng.normal(size=strict)) + 0.1
    c = -h @ xstar + a.T @ rng.normal(size=m) + zstar
    rows = a @ xstar
    g = GeneralQp(Hhat=h, Ahat=a, c=c,
                  lower=np.concatenate([np.zeros(n), rows]),
                  upper=np.concatenate([np.full(n, np.inf), rows]))
    return g, float(0.5 * xstar @ h @ xstar + c @ xstar)


@pytest.mark.parametrize("strategy", ["auto", "primal-first", "dual-first"])
@pytest.mark.parametrize("case", [(103, 30, 8, 1, 4, 8),
                                  (1017, 12, 4, 1, 2, 5)],
                         ids=["seed103", "seed1017"])
def test_weakly_active_instances_solve(case, strategy):
    # Rank-1 H with weakly active zeros: the full KKT matrix is singular, so
    # discovery reveals the basis by rank.  A start basis whose K_B is
    # numerically singular would fail its own optimality check.
    g, fstar = _weakly_active_instance(*case)
    p = standardize(g).problem
    assert factor_kb(p, np.flatnonzero(~p.fixed_mask)) is None
    sol = solve_pdqp(g, SolveConfig(strategy=strategy))
    assert sol.status == "optimal"
    assert abs(sol.objective - fstar) <= 1e-7 * (1.0 + abs(fstar))


def test_recover_z_nonbasic_cases(p1, p2):
    qn = Shifts.zero(2).q[:1]
    basic, nonbasic = np.array([0]), np.array([1])
    it = Iterate(np.array([1.0, 0.0]), np.array([3.0]), np.zeros(2))
    assert_allclose(recover_z_nonbasic(p2, basic, nonbasic, it, qn), [-3.0])
    basic, nonbasic = nonbasic, basic
    it = Iterate(np.array([0.0, 1.0]), np.array([1.0]), np.zeros(2))
    assert_allclose(recover_z_nonbasic(p1, basic, nonbasic, it, qn), [-1.0])
    zero = QpProblem(H=np.zeros((2, 2)), M=np.zeros((1, 1)),
                     A=np.array([[1.0, 1.0]]), b=np.zeros(1), c=np.zeros(2))
    it = Iterate(np.zeros(2), np.zeros(1), np.zeros(2))
    assert_allclose(recover_z_nonbasic(zero, basic, nonbasic, it, qn), [0.0])


def test_factor_solve_matches_gauss_on_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(1, 9))
        k = rng.normal(size=(dim, dim))
        k = k + k.T
        data = _bunch_kaufman(k)
        if data is None:
            continue
        rhs = rng.normal(size=dim)
        x = data.solve(rhs)
        assert_allclose(x, _gauss_solve(k, rhs), atol=1e-8 * max(1, np.abs(x).max()))


def test_factor_residuals_on_random_kkt():
    for p in random_instances(13, 15):
        f = factor_kb(p, find_soc_basis(p, KktBasis(p)).basic)
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=f.matrix.shape[0])
        x = f.solve(rhs)
        resid = np.max(np.abs(f.matrix @ x - rhs))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(f.matrix))) * max(1.0, np.abs(x).max())


def test_base_null_space_dimension_when_dzl_zero(p_lp):
    # dz_l = 0 in a base solve means (dx_l, dx_B, 0) spans the null space
    # of the bordered matrix.
    part = Partition(basic=[1], nonbasic=[], freed=0)
    d = solve_base_primal(p_lp, part, held_basis(p_lp, [1]), 0)
    assert d.dz_l == 0.0
    kl = build_kb(p_lp, [0, 1])
    null = np.array([d.dx[0], d.dx[1], 0.0])
    assert np.max(np.abs(kl @ null)) < 1e-12
    assert np.linalg.matrix_rank(kl) == kl.shape[0] - 1


def test_intermediate_singular_kb_case(p1):
    # Dual-side mirror: K_l nonsingular, dx_l = 0, K_B singular with
    # eigenvector (0, dy).
    p = QpProblem(H=p1.H, M=p1.M, A=p1.A, b=np.array([-1.0]), c=p1.c)
    part = Partition(basic=[], nonbasic=[0], freed=1)
    d = solve_intermediate_primal(p, part, 1, KktBasis(p))
    assert d.dx_l == 0.0
    kb = build_kb(p, [])
    assert np.linalg.matrix_rank(kb) == 0
    assert np.max(np.abs(kb @ d.dy)) < 1e-12


def test_boundary_point_solves_equalities(p2):
    part = Partition(basic=[0], nonbasic=[1])
    s = Shifts.zero(2)
    it = solve_boundary_point(p2, s, part, factor_kb(p2, part.basic))
    assert_allclose(it.x, [1.0, 0.0])
    assert_allclose(it.y, [3.0])
    assert_allclose(it.z, [0.0, -3.0])


def _kkt_with_sigma_min(rng, integer, rel_sigma):
    """A KKT matrix with rank-deficient H.  Unless ``rel_sigma`` is None,
    its smallest singular value is set to rel_sigma * max|K| by moving the
    smallest-magnitude eigenvalue, and any other below it, to that
    magnitude."""
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 4))
    rank = int(rng.integers(0, n))
    if integer:
        g = rng.integers(-3, 4, size=(rank, n)).astype(float)
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
    else:
        g = rng.normal(size=(rank, n))
        a = rng.normal(size=(m, n))
    k = np.block([[g.T @ g, a.T], [a, np.zeros((m, m))]])
    if rel_sigma is not None:
        lam, q = np.linalg.eigh(k)
        floor = rel_sigma * np.max(np.abs(k))
        small = np.abs(lam) < floor
        small[np.argmin(np.abs(lam))] = True
        lam[small] = np.where(lam[small] < 0, -floor, floor)
        k = q @ np.diag(lam) @ q.T
        k = 0.5 * (k + k.T)
    return k


def test_bunch_kaufman_acceptance_clears_singularity_bound():
    # Acceptance is the one nonsingularity verdict: every accepted K has
    # sigma_min(K) above the singularity bound dim * PIVOT_TOL * max|K|,
    # and its solves agree with a dense LU solve.
    rng = np.random.default_rng(20260810)
    accepted = rejected = 0
    for rel_sigma in [None] + [10.0 ** e for e in range(-15, -2)]:
        for integer in (True, False):
            for _ in range(40):
                k = _kkt_with_sigma_min(rng, integer, rel_sigma)
                bk = _bunch_kaufman(k)
                if bk is None:
                    rejected += 1
                    continue
                accepted += 1
                sigma_min = np.linalg.svd(k, compute_uv=False)[-1]
                bound = k.shape[0] * kkt.PIVOT_TOL * np.max(np.abs(k))
                assert sigma_min > bound
                rhs = rng.normal(size=k.shape[0])
                x = np.linalg.solve(k, rhs)
                assert np.linalg.norm(bk.solve(rhs) - x) \
                    <= 1e-8 * np.linalg.norm(x)
    assert accepted > 100 and rejected > 100


def test_bunch_kaufman_rejects_a_singular_k_with_a_roundoff_pivot():
    # K_B of basis [0, 1, 2, 5] is exactly singular, but dsycon estimated
    # rcond 0.077 for it: its factor ends in a 1x1 pivot of -2.2e-16,
    # which the pivot test rejects.  The oracle, which trusted the
    # factorization, then disagreed with its own Gaussian elimination.
    inf = np.inf
    g = GeneralQp(Hhat=[[5, -1, 4, 2], [-1, 1, 0, -2], [4, 0, 4, 0],
                        [2, -2, 0, 4]],
                  Ahat=[[-2, 2, 0, 0]], c=[3, 0, 2, 3],
                  lower=[0, 2, -2, -inf, 1], upper=[2, inf, inf, inf, inf])
    p = standardize(g).problem
    assert p.free == {3}
    part = Partition(basic=[0, 1, 2, 5], nonbasic=[3, 4])
    assert np.linalg.matrix_rank(build_kb(p, part.basic)) < 6
    assert factor_kb(p, part.basic) is None
    o = enumerate_solve(p, Shifts.zero(p.n))
    assert o.status == "optimal"
    assert o.objective == pytest.approx(-5.375)


def _discovery_problems(suite500):
    std = [standardize(g).problem for g in mixed_instances(1, 120)]
    return list(suite500) + std


def _holds(basis, order):
    """Whether ``basis`` holds a factorization of the basis matrix over
    ``order``."""
    return (basis._last is not None
            and basis._key == np.asarray(order, dtype=np.intp).tobytes())


def test_discovered_basis_is_certified_and_maximal(suite500):
    # K_B of the discovered basis passes the acceptance rule, and adding
    # any non-fixed column discovery left out makes the acceptance rule
    # reject it.
    revealed = 0
    for p in _discovery_problems(suite500):
        basis = KktBasis(p)
        part = find_soc_basis(p, basis)
        assert factor_kb(p, part.basic) is not None
        for j in set(part.nonbasic) - p.fixed:
            assert factor_kb(p, sorted(part.basic + [j])) is None
        revealed += not _holds(basis, np.flatnonzero(~p.fixed_mask))
    assert revealed > 100


def _lowrank_problems():
    """The standardized n=60 ``lowrank`` trajectory-pin constructions."""
    return [standardize(criterion7_instance(60, 6, 6, 1000 * rank + k,
                                            rank)[0]).problem
            for rank in (0, 2, 4, 6, 8) for k in range(4)]


def test_discovery_gives_the_partition_of_the_full_matrix_first_rule(
        suite500):
    # find_soc_basis factors the full KKT matrix first only where the
    # non-fixed columns exceed rank(H) by at most m; elsewhere that matrix
    # is singular.  The rule it replaced always did, and
    # kept every column where the acceptance rule took that matrix: the
    # partitions must agree, and the basis must hold the full matrix's
    # factorization once the start K_B is factored exactly where the
    # acceptance rule takes it.
    problems = (_discovery_problems(suite500) + _lowrank_problems()
                + list({id(p): p for _, p, _ in free_start_cases(7, 100)}
                       .values()))
    tried = 0
    for p in problems:
        cand = np.flatnonzero(~p.fixed_mask)
        k_full = build_kb(p, cand)
        accepted = _bunch_kaufman(k_full) is not None
        want = cand if accepted else kkt._revealed_basis(
            p, cand, kkt.PIVOT_TOL * float(np.abs(k_full).max()))
        basis = KktBasis(p)
        part = find_soc_basis(p, basis)
        assert part.basic == want.tolist()
        rank_test = cand.size - p.h_rank <= p.m
        assert _holds(basis, cand) == (accepted and rank_test)
        basis.factor(part.basic)          # the start K_B, as the driver does
        assert _holds(basis, cand) == accepted
        tried += rank_test
    assert 100 < tried < len(problems) - 100


def test_qr_pivots_match_scipy_qr():
    # _qr_pivots calls dgeqp3 and dorgqr directly, with scipy's workspace
    # queries: pivots, rank and the Q columns must be scipy.linalg.qr's,
    # bit for bit, at every shape (150 x 140 takes dorgqr's blocked path).
    rng = np.random.default_rng(11)
    shapes = [(6, 3), (3, 6), (5, 5), (1, 1), (8, 1), (1, 8), (40, 60),
              (150, 140), (0, 4), (4, 0), (0, 0)]
    mats = [rng.normal(size=s) for s in shapes]
    deficient = [rng.normal(size=(a, k)) @ rng.normal(size=(k, b))
                 for a, b, k in [(6, 5, 2), (3, 7, 2), (5, 5, 4), (4, 4, 0),
                                 (30, 20, 7)]]
    tol = 1e-10
    for r in mats + deficient:
        q, t, piv = scipy.linalg.qr(r, mode="economic", pivoting=True,
                                    check_finite=False)
        big = np.abs(t.diagonal()) > tol
        rank = big.size if big.all() else int(np.argmin(big))
        got, span = kkt._qr_pivots(r, tol, span=True)
        assert np.array_equal(got, piv[:rank])
        assert span.shape == (r.shape[0], rank)
        assert np.array_equal(span, q[:, :rank])
        assert np.array_equal(kkt._qr_pivots(r, tol)[0], piv[:rank])
    assert all(kkt._qr_pivots(r, tol)[0].size < min(r.shape)
               for r in deficient)


def _two_pass_basis(p, cand, first, tol):
    """``kkt._revealed_basis`` as it was before a first pass without a
    column was skipped: both passes always run, through scipy.linalg.qr."""
    def qr_pivots(r):
        q, t, piv = scipy.linalg.qr(r, mode="economic", pivoting=True,
                                    check_finite=False)
        big = np.abs(t.diagonal()) > tol
        rank = big.size if big.all() else int(np.argmin(big))
        return piv[:rank], q[:, :rank]

    def gather(a, rows, cols):
        return a.take(rows, axis=0).take(cols, axis=1)

    h, m = p.H, p.m
    one, two = cand[first[cand]], cand[~first[cand]]
    f1, k1, r1 = pivoted_cholesky(gather(h, one, one), tol)
    p1 = one[k1[:r1]]
    l1 = np.tril(f1[:r1, :r1])
    w = blas.dtrsm(1.0, l1, gather(h, p1, two), lower=1)
    f2, k2, r2 = pivoted_cholesky(gather(h, two, two) - w.T @ w, tol)
    k2 = k2[:r2]
    piv = np.concatenate([p1, two[k2]])
    lower = np.zeros((piv.size, piv.size))
    lower[:p1.size, :p1.size] = l1
    lower[p1.size:, :p1.size] = w.take(k2, axis=1).T
    lower[p1.size:, p1.size:] = np.tril(f2[:r2, :r2])
    nonpiv = cand[~index_mask(p.n, piv)[cand]]
    x = blas.dtrsm(1.0, lower, np.hstack([p.A.take(piv, axis=1).T,
                                          gather(h, piv, nonpiv)]), lower=1)
    r = p.A.take(nonpiv, axis=1) - x[:, :m].T @ x[:, m:]
    lead = first[nonpiv]
    c1, q1 = qr_pivots(r[:, lead])
    other = r[:, ~lead]
    c2, _ = qr_pivots(other - q1 @ (q1.T @ other))
    return np.sort(np.concatenate([piv, nonpiv[lead][c1],
                                   nonpiv[~lead][c2]]))


def test_revealed_basis_matches_two_pass_formula(suite500):
    # Skipping the empty first pass, and calling LAPACK directly, must
    # leave the revealed basis exactly as the two-pass formula gives it,
    # with no preferred column (the suite) and with some (free starts).
    problems = (list(suite500)
                + list({id(p): p for _, p, _ in free_start_cases(7, 100)}
                       .values()))
    preferring = 0
    for p in problems:
        cand = np.flatnonzero(~p.fixed_mask)
        first = index_mask(p.n, sorted(p.free))
        tol = kkt.PIVOT_TOL * kkt._kkt_max(p, cand)
        assert np.array_equal(kkt._revealed_basis(p, cand, tol),
                              _two_pass_basis(p, cand, first, tol))
        preferring += bool(first[cand].any())
    assert 50 < preferring < len(problems) - 400


def test_each_solve_factors_no_basis_matrix_twice_in_a_row(monkeypatch):
    # The index set of every factorization of a basis matrix (discovery,
    # K_B, K_l and counterparts, all through factor_kb), in call order:
    # one KktBasis per solve reuses its last factorization, so no solve
    # factors the same matrix twice in a row.
    factored = []
    factor = kkt.factor_kb

    def recording_factor(p, order):
        factored.append(tuple(sorted(np.asarray(order).tolist())))
        return factor(p, order)

    monkeypatch.setattr(kkt, "factor_kb", recording_factor)
    solves = [(p, lambda p, c: solve_standard(p, c))
              for p in random_instances(20260810, 100)]
    solves += [(g, lambda g, c: solve_pdqp(g, c))
               for g in mixed_instances(1, 40)]
    solves += [(criterion7_instance(60, 6, 6, 1000 * rank + k, rank)[0],
                lambda g, c: solve_pdqp(g, c))
               for rank in (0, 4, 8) for k in range(2)]
    total = 0
    for problem, solve in solves:
        for strategy in ("auto", "primal-first", "dual-first"):
            factored.clear()
            solve(problem, SolveConfig(strategy=strategy, max_iterations=500))
            assert all(a != b for a, b in zip(factored, factored[1:])), \
                (strategy, factored)
            total += len(factored)
    assert total > 1000


def test_certified_in_band_component_builds_no_counterpart(p_lp, p1,
                                                           monkeypatch):
    # dz_l = 0 (singular K_l) and dx_l = 0 (singular K_B), each computed
    # from a Bunch-Kaufman factorization: settled without assembling the
    # counterpart.
    bases = (held_basis(p_lp, [1]), KktBasis(p_lp))
    p = QpProblem(H=p1.H, M=p1.M, A=p1.A, b=np.array([-1.0]), c=p1.c)
    assert factor_kb(p, [1]) is not None
    built = _recording_build_kb(monkeypatch)
    for basis in bases:
        d = solve_base_primal(p_lp, Partition(basic=[1], nonbasic=[],
                                              freed=0), basis, 0)
        assert d.dz_l == 0.0 and np.all(d.dy == 0.0)
    assert built == [[1]]          # the second solve's own K_B only
    d = solve_intermediate_primal(p, Partition(basic=[], nonbasic=[0],
                                               freed=1), 1, KktBasis(p))
    assert d.dx_l == 0.0
    assert built == [[1], [1]]     # and the solve's own K_l


def _in_band_dz(kb, k, frac):
    """K_l bordering a certified K_B with column k, its h_ll chosen so that
    dz_l = frac * noise.  Returns (own K_B factorization, raw, noise, K_l,
    backward, bound) as solve_base_primal computes them, or None when K_B
    is not certified."""
    own = _bunch_kaufman(kb)
    if own is None:
        return None
    w = own.solve(-k)
    h = frac * 1e-12 * (np.abs(k) @ np.abs(w) + 1.0) - k @ w
    kl = np.block([[np.array([[h]]), k[None, :]], [k[:, None], kb]])
    raw = float(h + k @ w)
    noise = 1e-12 * float(abs(h) + np.abs(k) @ np.abs(w) + 1.0)
    bound = kl.shape[0] * kkt.PIVOT_TOL * np.max(np.abs(kl))
    return own, raw, noise, kl, abs(raw), bound


def _in_band_dx(kb0, k, h, frac):
    """A K_B that K_l = [[h, k'], [k, K_B]] borders, with the eigenvalue of
    kb0 nearest zero moved so that dx_l = 1 / (h - k' K_B^-1 k) is frac *
    noise.  Returns (own K_l factorization, raw, noise, K_B, backward,
    bound) as solve_intermediate_primal computes them, or None when no
    certified K_l results."""
    lam, q = np.linalg.eigh(kb0)
    i0 = int(np.argmin(np.abs(lam)))
    kq = q.T @ k
    rest = sum(kq[i] ** 2 / lam[i] for i in range(lam.size) if i != i0)
    e0 = np.eye(k.size + 1)[0]
    probe = _bunch_kaufman(np.block([[np.array([[h]]), k[None, :]],
                                     [k[:, None], kb0]]))
    if probe is None:
        return None
    target = frac * 1e-12 * max(1.0, float(np.max(np.abs(probe.solve(e0)))))
    lam[i0] = 0.0 if target == 0.0 else kq[i0] ** 2 / (h - 1.0 / target - rest)
    kb = q @ np.diag(lam) @ q.T
    kb = 0.5 * (kb + kb.T)
    own = _bunch_kaufman(np.block([[np.array([[h]]), k[None, :]],
                                   [k[:, None], kb]]))
    if own is None:
        return None
    w = own.solve(e0)
    raw = float(w[0])
    noise = 1e-12 * max(1.0, float(np.max(np.abs(w))))
    backward = abs(raw) * np.linalg.norm(k) / np.linalg.norm(w[1:])
    bound = kb.shape[0] * kkt.PIVOT_TOL * np.max(np.abs(kb))
    return own, raw, noise, kb, backward, bound


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("what", ["dz_l", "dx_l"])
def test_in_band_rule_agrees_with_greedy_counterpart(what, scale):
    # Bordered pairs K_B, K_l at a data scale, with a certified own
    # factorization and the freed component set to frac * noise, from 0 up
    # to the noise band.  The band has an absolute floor, so away from unit
    # scale it also holds genuine components.  A component the rule
    # settles at zero without assembling the counterpart must have a
    # counterpart that a change within the singularity bound, relative to
    # its own scale, makes singular; there the counterpart path agrees exactly up to a
    # tenth of the band and within the band above it.  Every other
    # component is the counterpart path's value, nonnegative, and when
    # nonzero a genuine component that matches the computed value.
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    settled = genuine = 0

    for rel_sigma in (1e-1, 1e-2, 1e-4):
        for integer in (True, False):
            for _ in range(40):
                kb0 = scale * _kkt_with_sigma_min(rng, integer, rel_sigma)
                k = scale * (rng.integers(-3, 4, size=kb0.shape[0]).astype(float)
                             if integer else rng.normal(size=kb0.shape[0]))
                h = scale * float(rng.normal())
                for frac in (0.0, 1e-6, 1e-3, 0.1, 0.5, 0.9):
                    case = (_in_band_dz(kb0, k, frac) if what == "dz_l"
                            else _in_band_dx(kb0, k, h, frac))
                    if case is None:
                        continue
                    _, raw, noise, counterpart, backward, bound = case
                    if not -noise <= raw <= noise:
                        continue
                    built = []
                    value = kkt._freed_component(
                        raw, noise, backward, bound,
                        lambda: built.append(1) or _bunch_kaufman(counterpart),
                        what)
                    # A bound below every backward error forces the
                    # counterpart path: factor the counterpart, pin the
                    # component at zero on a rejection.
                    reference = kkt._freed_component(
                        raw, noise, backward, -1.0,
                        lambda: _bunch_kaufman(counterpart), what)
                    if built:
                        assert value == reference >= 0.0
                        if reference > 0.0:
                            genuine += 1
                            assert reference == pytest.approx(raw, rel=1e-6)
                        continue
                    settled += 1
                    assert value == 0.0
                    top = np.max(np.abs(counterpart))
                    roundoff = 10 * eps * counterpart.size * top
                    sigma_min = np.linalg.svd(counterpart, compute_uv=False)[-1]
                    assert sigma_min <= backward + roundoff
                    assert sigma_min <= counterpart.shape[0] * kkt.PIVOT_TOL \
                        * top + roundoff
                    assert 0.0 <= reference <= noise
                    if frac <= 0.1:
                        assert reference == 0.0
    # Genuine components reach the band when dz_l ~ scale is small or
    # dx_l ~ 1 / scale is.
    assert settled > 100
    assert (genuine > 100) == (scale == (1e-12 if what == "dz_l" else 1e12))


@pytest.mark.parametrize("raw,accepted,want", [
    pytest.param(0.0, True, KktInternalError, id="accepted-zero-raises"),
    pytest.param(-0.5e-12, True, KktInternalError,
                 id="accepted-negative-in-band-raises"),
    pytest.param(-2e-12, True, KktInternalError,
                 id="accepted-below-band-raises"),
    pytest.param(0.5e-12, True, 0.5e-12, id="accepted-keeps-raw"),
    pytest.param(0.5e-12, False, 0.0, id="rejected-pins-zero"),
    pytest.param(-2e-12, False, 0.0, id="rejected-below-band-pins-zero"),
])
def test_counterpart_verdict_settles_a_component_outside_the_rule(
        raw, accepted, want):
    # A change within the singularity bound does not make the counterpart
    # singular (change > bound), so its factorization verdict
    # settles the component: zero on a rejection, else the computed value,
    # which must be positive.
    counterpart = _bunch_kaufman(np.eye(2)) if accepted else None

    def settle():
        return kkt._freed_component(raw, 1e-12, 1.0, 1e-20,
                                    lambda: counterpart, "dz_l")

    if want is KktInternalError:
        with pytest.raises(KktInternalError, match=r"dz_l computed "
                           r"nonpositive .* nonsingular counterpart"):
            settle()
    else:
        assert settle() == want


def test_all_data_at_1e12_settles_against_accepted_counterparts(monkeypatch):
    # The scale probe with all data at 1e12 holds genuine freed components
    # inside the noise band's absolute floor whose counterpart is factored
    # and accepted.  Every solve but one matches the oracle on the
    # unit-scale problem; seed 26 under dual-first raises InvariantError,
    # a failure of badly scaled data kept on record here.
    accepted = []
    settle = kkt._freed_component

    def counting(raw, noise, change, bound, counterpart, what):
        def counted():
            data = counterpart()
            if data is not None:
                accepted.append(what)
            return data
        return settle(raw, noise, change, bound, counted, what)

    monkeypatch.setattr(kkt, "_freed_component", counting)
    failed = {}
    for seed in range(30):
        ref = enumerate_solve(scale_probe(seed), Shifts.zero(5))
        p = scale_probe(seed, 1e12, 1e12)
        for strategy in ("auto", "primal-first", "dual-first"):
            try:
                sol = solve_standard(p, SolveConfig(strategy=strategy))
            except Exception as exc:    # the failure itself is the result
                failed[seed, strategy] = type(exc).__name__
                continue
            assert sol.status == ref.status
            if ref.status == "optimal":
                assert sol.objective / 1e12 == pytest.approx(ref.objective,
                                                             rel=1e-6)
    assert failed == {(26, "dual-first"): "InvariantError"}
    assert accepted


def test_all_data_at_2e_10_matches_the_unit_scale_oracle():
    # The scale probe with all data at 2e-10: the load-time rank test is
    # relative to the rows' own scale, so every seed's rows load (seed
    # 11's pivots lie below 1e-10 in absolute terms), and every solve
    # matches the oracle on the unit-scale problem.
    for seed in range(30):
        ref = enumerate_solve(scale_probe(seed), Shifts.zero(5))
        p = scale_probe(seed, 2e-10, 2e-10)
        for strategy in ("auto", "primal-first", "dual-first"):
            sol = solve_standard(p, SolveConfig(strategy=strategy))
            assert sol.status == ref.status
            if ref.status == "optimal":
                assert sol.objective / 2e-10 == pytest.approx(ref.objective,
                                                              rel=1e-6)


def test_in_band_base_bound_from_the_held_factorization_is_the_data_bound(
        monkeypatch):
    # In band, a base solve's dz_l takes the singularity bound of K_l from
    # max|K_B| of the factorization that served the solve and the border
    # k_l, h_ll.  A maximum is exact, so the bound must have the bits of
    # the one taken from the data, on every in-band base solve of the
    # suite draw and of the standardized mixed-bounds problems.  Below
    # UPDATE_MIN_DIM no update serves a solve, so every one of them takes
    # the held factorization's path.
    base, settle = steps.solve_base_primal, kkt._freed_component
    solving = []
    held = []

    def recorded_base(p, part, basis, l):
        solving.append((p, part.basic_mask.nonzero()[0], basis, l))
        try:
            return base(p, part, basis, l)
        finally:
            solving.pop()

    def checked(raw, noise, change, bound, counterpart, what):
        if what == "dz_l":
            p, basic, basis, l = solving[-1]
            order = kkt._with_freed(kkt.index_mask(p.n, basic), l)[0]
            want = kkt._singular_bound(order.size + p.m,
                                       kkt._kkt_max(p, order))
            assert np.float64(bound).tobytes() == np.float64(want).tobytes()
            held.append(basis.held(basic) is not None)
        return settle(raw, noise, change, bound, counterpart, what)

    monkeypatch.setattr(steps, "solve_base_primal", recorded_base)
    monkeypatch.setattr(kkt, "_freed_component", checked)
    for p in random_instances(20260810, 500):
        solve_standard(p)
    suite = len(held)
    for g in mixed_instances(1, 120):
        p = standardize(g).problem
        for strategy in ("auto", "primal-first", "dual-first"):
            solve_standard(p, SolveConfig(strategy=strategy))
    assert suite > 400 and len(held) - suite > 400
    assert all(held)


# Schur-complement updates (KktBasis), run at every dim by lowering the
# threshold.

@pytest.fixture
def updates_everywhere(monkeypatch):
    monkeypatch.setattr(kkt, "UPDATE_MIN_DIM", 0)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **kw: calls.append(a) or original(*a, **kw))
    return calls


def _assert_same_direction(got, want):
    scale = max(1.0, *(float(np.max(np.abs(v), initial=0.0))
                       for v in (want.dx, want.dy, want.dz)))
    for a, b in ((got.dx, want.dx), (got.dy, want.dy), (got.dz, want.dz),
                 (got.dx_l, want.dx_l), (got.dz_l, want.dz_l)):
        assert float(np.max(np.abs(np.subtract(a, b)), initial=0.0)) \
            <= 1e-9 * scale


def test_updated_directions_match_fresh_and_solves_stay_correct(
        updates_everywhere, monkeypatch):
    # Every direction the solves ask for is recomputed by the fresh path
    # (a solve against a KktBasis that holds no K_B0) and compared.  Some
    # of them are updated solves whose freed component lies in its band,
    # which _freed_component settles from the update, with no fresh
    # factorization of the basis matrix.
    base, inter = kkt.solve_base_primal, kkt.solve_intermediate_primal
    settled = _counting(monkeypatch, kkt, "_freed_component")
    fresh = _counting(monkeypatch, kkt.KktBasis, "_factor")
    in_band = []

    def served(solve):
        start, at, was = len(updated), len(settled), len(fresh)
        d = solve()
        in_band.append(updated[start:] == [True] and len(settled) > at
                       and len(fresh) == was)
        return d

    def checked_base(p, part, basis, l):
        d = served(lambda: base(p, part, basis, l))
        _assert_same_direction(d, base(p, part, KktBasis(p), l))
        return d

    def checked_intermediate(p, part, l, basis):
        d = served(lambda: inter(p, part, l, basis))
        _assert_same_direction(d, inter(p, part, l, KktBasis(p)))
        return d

    monkeypatch.setattr(steps, "solve_base_primal", checked_base)
    monkeypatch.setattr(steps, "solve_intermediate_primal",
                        checked_intermediate)
    updated = []
    update = kkt.KktBasis._update

    def recorded(self, order, rhs):
        w = update(self, order, rhs)
        updated.append(w is not None)
        return w

    monkeypatch.setattr(kkt.KktBasis, "_update", recorded)

    strategies = ("auto", "primal-first", "dual-first")
    for p in random_instances(20260810, 100):
        want = enumerate_solve(p, Shifts.zero(p.n))
        for strategy in strategies:
            sol = solve_standard(p, SolveConfig(strategy=strategy))
            assert sol.status == want.status, strategy
            if want.status == "optimal":
                assert abs(sol.objective - want.objective) <= \
                    1e-7 * (1.0 + abs(want.objective)), strategy
    for rank in (0, 2, 4, 6, 8):
        for k in range(6):
            g, _, fstar = criterion7_instance(60, 6, 6, 1000 * rank + k, rank)
            for strategy in strategies:
                sol = solve_pdqp(g, SolveConfig(strategy=strategy,
                                                max_iterations=500))
                assert sol.status == "optimal", (g.name, strategy)
                assert abs(sol.objective - fstar) <= \
                    1e-7 * (1.0 + abs(fstar)), (g.name, strategy)
    assert sum(updated) > 1000, (sum(updated), len(updated))
    assert sum(in_band) > 100, (sum(in_band), len(in_band))


def test_dlange_one_norm_has_the_bits_of_numpys_column_sums():
    # _bunch_kaufman takes ||K||_1, of a basis matrix and of an update's
    # Schur block S alike, from LAPACK's dlange on the transpose, which
    # sums each column in order as numpy sums |K| over axis 0: on
    # symmetric matrices of every scale the two give the same bits, so
    # dsycon's verdicts see the same norm.
    rng = np.random.default_rng(12)
    for dim in list(range(1, 40)) + [75, 120, 301]:
        g = rng.normal(size=(dim, dim)) * np.exp(8 * rng.normal(size=(dim, dim)))
        k = np.tril(g) + np.tril(g, -1).T
        want = float(np.abs(k).sum(axis=0).max())
        got = float(kkt.lapack.dlange("1", k.T))
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), dim


def test_bunch_kaufman_hands_dsytrf_a_fortran_order_array(monkeypatch):
    # K is exactly symmetric, so K.T carries its values in Fortran order
    # and gives the factorization of the C-order call bit for bit.
    dsytrf = kkt.lapack.dsytrf
    given = []

    def recorded(a, **kw):
        given.append(a)
        return dsytrf(a, **kw)

    monkeypatch.setattr(kkt.lapack, "dsytrf", recorded)
    rng = np.random.default_rng(8)
    ks = []
    for dim in (8, 50, 300):
        g = rng.normal(size=(dim, dim))
        ks.append(g + g.T)
    p = standardize(criterion7_instance(250, 20, 10, 500)[0]).problem
    ks.append(build_kb(p, np.arange(p.n)))
    for k in ks:
        given.clear()
        f = _bunch_kaufman(k)
        assert len(given) == 1 and given[0].flags.f_contiguous
        lwork = int(kkt.lapack.dsytrf_lwork(k.shape[0], lower=1)[0])
        ldu, ipiv, info = dsytrf(k, lower=1, lwork=lwork)
        assert info == 0 and k.flags.c_contiguous
        assert f.ldu.tobytes() == ldu.tobytes()
        assert f.ipiv.tobytes() == ipiv.tobytes()


def _counting_applies(monkeypatch):
    """The dim of every K_B0 apply, in order, of each K_B0 taken after
    the call: the ``_once`` calls of the held factorization while it is
    K_B0."""
    applies = []
    rebase = kkt.KktBasis._rebase

    def counted_rebase(self, *args):
        rebase(self, *args)
        if self._w is not None:
            once = self._last._once
            self._last._once = lambda r: applies.append(r.size) or once(r)

    monkeypatch.setattr(kkt.KktBasis, "_rebase", counted_rebase)
    return applies


def test_freeing_solve_supplies_the_next_border_column(monkeypatch):
    # n = 250 gives K of dim 270, past UPDATE_MIN_DIM: every dual base
    # step after the first is an update.  Its solve K_l w = e_at applies
    # K_B0^-1 to e_l, which is l's border column once the step drops l.
    g, xstar, fstar = criterion7_instance(250, 20, 10, 500)
    applies = _counting_applies(monkeypatch)
    slots = kkt.KktBasis._slots
    checked = set()

    def checked_slots(self, keys):
        out = slots(self, keys)
        k0 = self._last
        for j, at in self._slot.items():
            if self._pos0[j] >= 0 and j not in checked:
                e = np.zeros(k0.matrix.shape[0])
                e[self._pos0[j]] = 1.0
                direct = kkt.KktFactorization._once(k0, e)     # uncounted
                assert self._v[:, at].tobytes() == direct.tobytes()
                checked.add(j)
        return out

    monkeypatch.setattr(kkt.KktBasis, "_slots", checked_slots)
    sol = solve_pdqp(g)
    assert sol.status == "optimal"
    assert abs(sol.objective - fstar) <= 1e-9 * (1.0 + abs(fstar))
    assert np.max(np.abs(sol.x - xstar)) <= 1e-8 * (1.0 + np.max(xstar))
    # Nine updated steps: one apply each, as none needs its refinement
    # step, and one border column that no updated solve made (the index
    # the fresh first step dropped).
    assert len(checked) == 9
    assert applies == [270] * 10


def _unit_roundoffs(kb, w, rhs):
    """The normwise backward error of w in K_B w = rhs, with the exact
    ||K_B||_inf, in units of d u (d the dim, u the unit roundoff)."""
    k_norm = float(np.abs(kb).sum(axis=1).max())
    eta = kkt._backward_error(rhs - kb @ w, k_norm, w, rhs)
    return eta / (rhs.size * np.finfo(float).eps / 2)


@pytest.mark.parametrize("perturbed", [False, True])
def test_updated_solve_refines_only_past_its_backward_error_bound(
        monkeypatch, perturbed):
    # K_B0 over the 240 positive components of x* on the n = 250 ladder
    # rung, dim 260; K_B adds one active index, a border column of one
    # K_B0 apply.  The solve's own apply, the second, is off by 1e-8
    # relative when perturbed: its backward error then asks for the
    # refinement apply, and that one step brings it below d u.
    g, xstar, _ = criterion7_instance(250, 20, 10, 500)
    p = standardize(g).problem
    b0 = xstar.nonzero()[0]
    order = np.sort(np.append(b0, (xstar == 0.0).nonzero()[0][0]))
    basis = held_basis(p, b0)
    assert basis._w is not None
    k0, applies = basis._last, []
    solve0 = k0._once

    def counted(r):
        applies.append(r.size)
        t = solve0(r)
        return t * (1.0 + 1e-8) if perturbed and len(applies) == 2 else t

    k0._once = counted
    rhs = np.random.default_rng(4).normal(size=order.size + p.m)
    w = basis._update(order, rhs)
    assert applies == [260] * (3 if perturbed else 2)
    assert _unit_roundoffs(build_kb(p, order), w, rhs) <= 1.0


def test_a_ladder_pass_makes_130_k_b0_applies_and_15_factorizations(
        monkeypatch):
    # The five rungs (n, m, active) of the benchmark's ``ladder`` workload
    # at its seed 500: exact work counts, which do not scatter as times
    # do.  None of the 125 updated solves refines.  The backward error of
    # each stays far below the d u that would make it refine, so a host
    # whose BLAS eats that margin fails here rather than slowly.  Every
    # rung's tridiagonal H passes the load-time dominance test, so no
    # pivoted Cholesky factorization (dpstrf) runs.
    rungs = ((100, 10, 10), (250, 20, 10), (500, 20, 10), (1000, 20, 10),
             (500, 20, 100))
    applies = _counting_applies(monkeypatch)
    fresh = _counting(monkeypatch, kkt, "factor_kb")
    cholesky = _counting(monkeypatch, model.lapack, "dpstrf")
    ratios = []
    backward_error = kkt._backward_error

    def recorded(res, k_norm_bound, x, rhs):
        eta = backward_error(res, k_norm_bound, x, rhs)
        ratios.append(eta / (res.size * np.finfo(float).eps / 2))
        return eta

    monkeypatch.setattr(kkt, "_backward_error", recorded)
    for n, m, active in rungs:
        g, _, fstar = criterion7_instance(n, m, active, 500)
        sol = solve_pdqp(g)
        assert sol.status == "optimal"
        assert abs(sol.objective - fstar) <= 1e-9 * (1.0 + abs(fstar))
    assert (len(applies), len(fresh), len(ratios), len(cholesky)) == (
        130, 15, 125, 0)
    assert max(ratios) < 1e-2


def test_lowrank_with_updates_everywhere_factors_once_per_instance(
        updates_everywhere, monkeypatch):
    # The 12 constructions of the benchmark's ``lowrank`` workload with
    # every basis matrix past the update gate: each instance factors only
    # its start basis, and every later solve, its freed component in its
    # noise band or not, is an update.  A refactor of K_B for each
    # in-band dz_l would make 144.
    factored = _counting(monkeypatch, kkt, "factor_kb")
    workload = LowRank(Path("."))
    statuses = [solve_pdqp(constructed_qp(*spec)[0], workload.config()).status
                for spec in workload.specs(None)]
    assert statuses == ["optimal"] * 12
    assert len(factored) == 12


def _recorded_dsytrf(monkeypatch):
    """(dim, info) of every ``dsytrf`` call ``kkt`` makes after the call."""
    infos = []
    dsytrf = kkt.lapack.dsytrf

    def recorded(a, **kw):
        out = dsytrf(a, **kw)
        infos.append((a.shape[0], out[2]))
        return out

    monkeypatch.setattr(kkt.lapack, "dsytrf", recorded)
    return infos


def test_a_solve_whose_schur_block_is_singular_refactors_and_raises(
        updates_everywhere, monkeypatch):
    # n = 1, m = 1, H = 0, M = 0: K_B0 over B0 = {0} is [[0, 3], [3, 0]].
    # The order [] drops 0, so the border is e_0 and S = -e_0' K_B0^-1 e_0
    # = 0 exactly: dsytrf reports S singular and the update declines.
    # The fresh path then factors K_B = [0], which the acceptance rule
    # rejects, and the solve raises.
    p = QpProblem(H=np.zeros((1, 1)), M=np.zeros((1, 1)), A=np.array([[3.0]]),
                  b=np.zeros(1), c=np.zeros(1))
    basis = held_basis(p, [0])
    assert basis._w is not None
    infos = _recorded_dsytrf(monkeypatch)
    updates = _counting(monkeypatch, kkt.KktBasis, "_update")
    factored = _counting(monkeypatch, kkt, "factor_kb")
    with pytest.raises(KktInternalError, match=r"basis matrix unexpectedly "
                       r"singular over variables \[\]$"):
        basis.solve(np.zeros(0, dtype=np.intp), np.array([1.0]))
    assert len(updates) == 1 and infos == [(1, 1), (1, 1)]
    assert [a[1].tolist() for a in factored] == [[]]
    assert basis._w is None and basis._last is None


def test_a_full_border_cache_refactors(p1, updates_everywhere, monkeypatch):
    # With one border column allowed, B = {0, 1} from B0 = {0} is served
    # by an update (the column of 1), and B = {1} then needs a second
    # column (e_0): the solve refactors, and its factorization is the new
    # K_B0, whose solve has the bits of a fresh one.
    monkeypatch.setattr(kkt, "BORDER_CAP", 1)
    basis = held_basis(p1, [0])
    factored = _counting(monkeypatch, kkt, "factor_kb")
    basis.solve(np.array([0, 1]), np.array([1.0, 2.0, 3.0]))
    assert factored == [] and _holds(basis, [0])
    rhs = np.array([1.0, 2.0])
    got = basis.solve(np.array([1]), rhs)
    assert [a[1].tolist() for a in factored] == [[1]]
    assert _holds(basis, [1]) and basis._w is not None
    assert got.tobytes() == factor_kb(p1, [1]).solve(rhs).tobytes()


def test_an_accepted_update_agrees_with_the_fresh_solve(updates_everywhere,
                                                        monkeypatch):
    # Bases one to three index changes away from B0 of a positive definite
    # H: the update serves each solve (no factor_kb call), and its solution
    # lies within the forward error that a backward error of d unit
    # roundoffs allows, d the dim of K_B, from the fresh solve's.
    rng = np.random.default_rng(3)
    n, m = 12, 3
    root = rng.standard_normal((n, n))
    p = QpProblem(H=root @ root.T / n + np.eye(n), M=np.zeros((m, m)),
                  A=rng.standard_normal((m, n)), b=np.zeros(m), c=np.zeros(n))
    b0 = np.arange(0, n, 2)
    for order in (np.arange(0, 10, 2), np.array([0, 2, 3, 4, 6, 8, 10]),
                  np.array([1, 2, 4, 6, 8, 10])):
        basis = held_basis(p, b0)
        factored = _counting(monkeypatch, kkt, "factor_kb")
        rhs = rng.standard_normal(order.size + m)
        got = basis.solve(order, rhs)
        assert factored == [] and _holds(basis, b0)
        k = build_kb(p, order)
        want = factor_kb(p, order).solve(rhs)
        d = k.shape[0]
        cond = np.linalg.norm(k, np.inf) * np.linalg.norm(np.linalg.inv(k),
                                                          np.inf)
        bound = 2 * d * np.finfo(float).eps / 2 * cond * np.abs(want).max()
        assert np.abs(got - want).max() <= bound


def test_update_refuses_a_singular_border(p_lp, updates_everywhere,
                                          monkeypatch):
    # dsytrf info of every factorization: K_B0 (dim 2 or 3), S (dim 1).
    infos = []
    dsytrf = kkt.lapack.dsytrf

    def recorded(a, **kw):
        out = dsytrf(a, **kw)
        infos.append((a.shape[0], out[2]))
        return out

    monkeypatch.setattr(kkt.lapack, "dsytrf", recorded)

    # K_B0 over B0 = {1} is [[0, -1], [-1, 0]]; dropping 1 or adding 0
    # makes K_B singular, and S = 0 exactly.  K_B0's own order is served
    # by the held factorization, never by an update of an empty border.
    basis = held_basis(p_lp, [1])
    updates = _counting(monkeypatch, kkt.KktBasis, "_update")
    assert_allclose(basis.solve([1], np.array([1.0, 2.0])), [-2.0, -1.0])
    assert updates == []
    infos.clear()
    assert basis._update([], np.array([1.0])) is None
    assert basis._update([0, 1], np.array([1.0, 0.0, 0.0])) is None
    assert infos == [(1, 1), (1, 1)]

    # H = [[1, 1], [1, 1 + d]], A = [1 1]: adding 1 to B0 = {0} gives
    # S = d exactly.  At d = 1e-9, K_B is nonsingular, but the dsycon
    # estimate of ||S^-1|| breaks the bound; at d = 0.5 the update holds.
    for d, holds in ((1e-9, False), (0.5, True)):
        p = QpProblem(H=np.array([[1.0, 1.0], [1.0, 1.0 + d]]),
                      M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                      b=np.zeros(1), c=np.zeros(2))
        basis = held_basis(p, [0])
        rhs = np.array([1.0, 2.0, 3.0])
        infos.clear()
        w = basis._update([0, 1], rhs)
        assert infos == [(1, 0)]
        if holds:
            assert_allclose(w, np.linalg.solve(build_kb(p, [0, 1]), rhs),
                            rtol=1e-12)
        else:
            assert w is None
    assert factor_kb(p_lp, []) is None
    with pytest.raises(KktInternalError, match=r"matrix unexpectedly "
                       r"singular over variables \[\]"):
        solve_base_primal(p_lp, Partition(basic=[], nonbasic=[1], freed=0),
                          basis, 0)
    basis = held_basis(p_lp, [1])
    with pytest.raises(KktInternalError, match=r"matrix unexpectedly "
                       r"singular over variables \[0, 1\]"):
        solve_intermediate_primal(
            p_lp, Partition(basic=[1], nonbasic=[], freed=0), 0, basis)


def test_in_band_freed_component_settles_from_the_update(p_lp, p1,
                                                         monkeypatch,
                                                         updates_everywhere):
    factored = _counting(monkeypatch, kkt, "factor_kb")
    verdicts = _counting(monkeypatch, kkt, "_bunch_kaufman")
    settled = _counting(monkeypatch, kkt, "_freed_component")
    part = Partition(basic=[1], nonbasic=[], freed=0)

    # Every K_B0 below has B0 = {0}, so that each solve (over B = {1} or
    # B + l = {0, 1}) is a different matrix, which an update serves; no
    # solve refactors, so the basis still holds K_B0 afterwards.  Each
    # acceptance verdict is a factor_kb call or an update's Schur block.
    # dz_l = 2 and dx_l = 0.5 lie above their bands: updates only.
    basis = held_basis(p1, [0])
    assert solve_base_primal(p1, part, basis, 0).dz_l == pytest.approx(2.0)
    assert solve_intermediate_primal(p1, part, 0, basis).dx_l == \
        pytest.approx(0.5)
    assert (len(factored), len(verdicts), len(settled)) == (1, 3, 0)
    assert _holds(basis, [0])

    # dz_l = 0 (K_l singular): the updated solve's dz_l is settled by
    # _freed_component, which factors no counterpart.
    basis = held_basis(p_lp, [0])
    d = solve_base_primal(p_lp, part, basis, 0)
    assert d.dz_l == 0.0 and np.all(d.dy == 0.0)
    assert (len(factored), len(settled)) == (2, 1)
    assert _holds(basis, [0])

    # dx_l = 0 (K_B = [0] singular): likewise from the updated K_l solve.
    basis = held_basis(p1, [0])
    d = solve_intermediate_primal(
        p1, Partition(basic=[], nonbasic=[0], freed=1), 1, basis)
    assert d.dx_l == 0.0
    assert (len(factored), len(verdicts), len(settled)) == (3, 7, 2)
    assert _holds(basis, [0])


@pytest.mark.parametrize("rank,n,m,active,larger", [
    (2, 60, 10, 6, "nonbasic"),         # |N| > |B| + 1: rows of H over S
    (None, 30, 5, 3, "basic"),          # |N| <= |B|: rows of H over N
])
def test_dz_nonbasic_from_either_side_of_h(rank, n, m, active, larger):
    p = standardize(criterion7_instance(n, m, active, 3, rank=rank)[0]).problem
    start = find_soc_basis(p, KktBasis(p))
    for l in start.basic[:3]:
        part = start.copy()
        part.free_index(l)
        nb, nn = len(part.basic), len(part.nonbasic)
        assert (nn > nb + 1) if larger == "nonbasic" else (nn <= nb)
        basic = np.array(part.basic)
        nonbasic = np.array(part.nonbasic)
        support = np.array(start.basic)             # S = B + l
        for d in (solve_base_primal(p, part, KktBasis(p), l),
                  solve_intermediate_primal(p, part, l, KktBasis(p))):
            assert d.dz_l != 0.0 and np.all(d.dz[basic] == 0.0)
            assert np.all(d.dx[nonbasic] == 0.0)
            rows_n = p.H[nonbasic] @ d.dx - p.A[:, nonbasic].T @ d.dy
            rows_s = (d.dx[support] @ p.H[support] - d.dy @ p.A)[nonbasic]
            # Relative to the size of the terms that the sums cancel.
            scale = max(1.0, float((np.abs(p.H[nonbasic]) @ np.abs(d.dx)
                                    + np.abs(p.A[:, nonbasic]).T
                                    @ np.abs(d.dy)).max()))
            for ref in (rows_n, rows_s):
                assert np.abs(d.dz[nonbasic] - ref).max() <= 1e-12 * scale
