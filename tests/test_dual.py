import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdqp import (InvariantError, Iterate, Partition, QpProblem, Shifts,
                  StartConditionError, check_optimality, solve_dual)
from pdqp import steps
from pdqp.dual import dual_base, dual_intermediate
from pdqp.kkt import KktBasis

from conftest import random_instances


@pytest.fixture
def p_neg_b(p1):
    """p1 with b = -1: primal infeasible, dual feasible everywhere."""
    return QpProblem(H=p1.H, M=p1.M, A=p1.A, b=np.array([-1.0]), c=p1.c)


def neg_b_start():
    it = Iterate(np.array([0.0, -1.0]), np.array([-1.0]), np.array([1.0, 0.0]))
    part = Partition(basic=[1], nonbasic=[0])
    return it, part


def test_dual_base_infeasibility_trace(p_neg_b):
    it, part = neg_b_start()
    part.free_index(1)
    step, d = dual_base(p_neg_b, Shifts.zero(2), part, it, 1,
                        basis=KktBasis(p_neg_b))
    assert d.dx_l == 0.0
    assert d.dz[0] == pytest.approx(1.0)
    assert np.isinf(step.alpha_star) and np.isinf(step.alpha_max)
    assert np.isinf(step.alpha)
    assert_allclose(it.x, [0.0, -1.0])  # unapplied


def test_dual_base_guards_sign(p1):
    it = Iterate(np.array([0.5, 0.5]), np.array([0.5]), np.zeros(2))
    part = Partition(basic=[1], nonbasic=[0], freed=None)
    part.free_index(1)
    with pytest.raises(StartConditionError):
        dual_base(p1, Shifts.zero(2), part, it, 1, basis=KktBasis(p1))


def test_dual_base_bounded_fixture(p2):
    # Start dual-feasible with x1 negative basic; one base step fixes it.
    it = Iterate(np.array([-0.5, 1.5]), np.array([1.5]), np.zeros(2))
    part = Partition(basic=[0, 1], nonbasic=[])
    part.free_index(0)
    step, d = dual_base(p2, Shifts.zero(2), part, it, 0,
                        basis=KktBasis(p2))
    assert step.hit_target
    assert step.alpha == pytest.approx(1.0)
    assert_allclose(it.x, [0.0, 1.0], atol=1e-12)
    assert_allclose(it.y, [1.0], atol=1e-12)
    assert_allclose(it.z, [1.0, 0.0], atol=1e-12)


def test_dual_intermediate_alpha_arithmetic():
    # x_l + q_l = -2 with dx_l = 1 and no blocking gives alpha = 2.
    p = QpProblem(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                  b=np.array([-1.0]), c=np.zeros(2))
    it = Iterate(np.array([-2.0, 1.0]), np.array([1.0]), np.array([-3.0, 0.0]))
    part = Partition(basic=[1], nonbasic=[], freed=0)
    step, d = dual_intermediate(p, Shifts.zero(2), part, it, 0,
                                basis=KktBasis(p))
    assert d.dx_l == 1.0
    assert step.alpha_star == pytest.approx(2.0)
    assert step.alpha == pytest.approx(2.0)
    assert step.hit_target
    assert it.x[0] == 0.0


def test_solve_dual_primal_infeasible(p_neg_b):
    it, part = neg_b_start()
    out = solve_dual(p_neg_b, Shifts.zero(2), (it, part))
    assert out.status == "primal_infeasible"
    assert out.subiterations == 1
    assert out.certificate is not None


def test_solve_dual_already_optimal(p1):
    it = Iterate(np.array([0.5, 0.5]), np.array([0.5]), np.zeros(2))
    part = Partition(basic=[0, 1], nonbasic=[])
    out = solve_dual(p1, Shifts.zero(2), (it, part))
    assert out.status == "optimal"
    assert out.iterations == 0


def test_solve_dual_fixture_converges(p2):
    # Dual stage of the shifted pipeline on p2 from the full basis.
    it = Iterate(np.array([-0.5, 1.5]), np.array([1.5]), np.zeros(2))
    part = Partition(basic=[0, 1], nonbasic=[])
    out = solve_dual(p2, Shifts.zero(2), (it, part), check_invariants=True)
    assert out.status == "optimal"
    assert_allclose(out.iterate.x, [0.0, 1.0], atol=1e-12)
    assert out.partition.nonbasic == [0]
    assert check_optimality(p2, Shifts.zero(2), out.iterate).optimal


def test_solve_dual_relaxed_nonbasic_selection(p2):
    # x_N + q_N < 0 at entry (shift removed): the nonbasic index is freed
    # directly and driven to its bound with intermediate subiterations.
    it = Iterate(np.array([-0.5, 1.5]), np.array([1.5]), np.zeros(2))
    part = Partition(basic=[1], nonbasic=[0])
    records = []
    out = solve_dual(p2, Shifts.zero(2), (it, part), trace=records.append,
                     check_invariants=True)
    assert out.status == "optimal"
    assert records[0].kind == "intermediate"
    assert_allclose(out.iterate.x, [0.0, 1.0], atol=1e-12)


# min 0.5 x'Hx + c'x s.t. sum(x) = 1, x >= 0: p2, and the problem of
# test_dual_degenerate_zero_step_swaps_and_continues.
P2 = (np.eye(2), [2.0, 0.0])
P3 = ([[1.0, 0.0, 0.0], [0.0, 5.0, 2.0], [0.0, 2.0, 1.0]], [3.0, -2.0, 0.0])
P4 = (np.eye(2), [4.0, 0.0])


@pytest.mark.parametrize("hc,free,x,y,z,basic,error,match", [
    # Each state satisfies the equality system and violates one clause
    # only.
    # guarded: nonbasic z_1 below its bound
    (P2, (), [1.0, 0.0], 3.0, [0.0, -3.0], [0], StartConditionError,
     r"dual start: guarded z\[1\]"),
    # idle: basic z_0 off its bound
    (P2, (), [1.0, 0.0], 0.0, [3.0, 0.0], [0], StartConditionError,
     r"dual start: idle z\[0\]"),
    # idle, tightened: a free basic z_0 off its bound, once accepted
    (P2, (0,), [1.0, 0.0], 0.0, [3.0, 0.0], [0], StartConditionError,
     r"dual start: idle z\[0\]"),
    # relaxed entry: nonbasic x_1 above its bound
    (P2, (), [-1.0, 2.0], 1.0, [0.0, 1.0], [0], StartConditionError,
     r"dual start: relaxed x\[1\]"),
    # pinned: a free nonbasic z_0 off its temporary bound z_0 + r_0 = 0,
    # once solved to a false optimum
    (P4, (0,), [0.0, 1.0], 1.0, [3.0, 0.0], [1], StartConditionError,
     r"dual start: pinned z\[0\] \+ r\[0\] = 3\.000e\+00"),
    # invariant: a step that ignores the blocking z_1 leaves it below
    (P3, (), [-1.0, 0.0, 2.0], 2.0, [0.0, 0.0, 0.0], [0, 2], InvariantError,
     r"dual invariant: guarded z\[1\]"),
    # pinned invariant: the same step moves a free nonbasic z_1 off its
    # temporary bound
    (P3, (1,), [-1.0, 0.0, 2.0], 2.0, [0.0, 0.0, 0.0], [0, 2],
     InvariantError, r"dual invariant: pinned z\[1\]"),
], ids=["guarded", "idle", "idle_free", "relaxed", "pinned", "invariant",
        "pinned_invariant"])
def test_solve_dual_rejects_bad_start(monkeypatch, hc, free, x, y, z, basic,
                                      error, match):
    n = len(x)
    p = QpProblem(H=hc[0], M=np.zeros((1, 1)), A=np.ones((1, n)),
                  b=np.array([1.0]), c=hc[1], free=frozenset(free))
    it = Iterate(np.array(x), np.array([y]), np.array(z))
    part = Partition(basic=basic, nonbasic=[j for j in range(n)
                                            if j not in basic])
    if error is InvariantError:
        monkeypatch.setattr(steps, "ratio_test",
                            lambda *a, **k: (np.inf, None))
    with pytest.raises(error, match=match):
        solve_dual(p, Shifts.zero(n), (it, part), check_invariants=True)


def test_solve_dual_iteration_limit():
    # All three basic variables start below their bounds; cap at one
    # iteration.
    p = QpProblem(H=np.eye(3), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0, 1.0]]), b=np.array([-2.0]),
                  c=np.zeros(3))
    it = Iterate(np.full(3, -2.0 / 3.0), np.array([-2.0 / 3.0]), np.zeros(3))
    part = Partition(basic=[0, 1, 2], nonbasic=[])
    out = solve_dual(p, Shifts.zero(3), (it, part), max_iterations=1)
    assert out.status == "iteration_limit"
    assert out.iterations == 1


def test_dual_degenerate_zero_step_swaps_and_continues():
    # A nonbasic dual sitting exactly at its bound blocks the base step at
    # zero length; the index swaps in and the solve proceeds.
    p = QpProblem(H=np.array([[1.0, 0.0, 0.0],
                              [0.0, 5.0, 2.0],
                              [0.0, 2.0, 1.0]]),
                  M=np.zeros((1, 1)), A=np.array([[1.0, 1.0, 1.0]]),
                  b=np.array([1.0]), c=np.array([3.0, -2.0, 0.0]))
    it = Iterate(np.array([-1.0, 0.0, 2.0]), np.array([2.0]), np.zeros(3))
    part = Partition(basic=[0, 2], nonbasic=[1])
    records = []
    out = solve_dual(p, Shifts.zero(3), (it, part), trace=records.append,
                     check_invariants=True)
    assert out.status == "optimal"
    assert records[0].kind == "base"
    assert records[0].step.alpha == 0.0
    assert records[0].step.blocking == 1
    assert any(r.kind == "intermediate" for r in records)
    assert np.all(out.iterate.x >= -1e-9)


def test_primal_dual_symmetry_on_self_dual_family():
    # H = I, M = 0: the primal run from a primal-feasible point and the
    # dual run from the matching dual-feasible point both walk chains of
    # factorable bases.
    from pdqp import solve_primal
    from pdqp.kkt import factor_kb
    from pdqp.kkt import KktFactorization
    rng = np.random.default_rng(61)
    for _ in range(10):
        n, m = 6, 2
        a = rng.normal(size=(m, n))
        x0 = np.abs(rng.normal(size=n))
        p = QpProblem(H=np.eye(n), M=np.zeros((m, m)), A=a, b=a @ x0,
                      c=rng.normal(size=n))
        from pdqp.driver import init_shifts
        from pdqp.kkt import find_soc_basis
        part = find_soc_basis(p, KktBasis(p))
        shifts, it = init_shifts(p, part, factor_kb(p, part.basic))
        outs = [
            solve_primal(p, Shifts(shifts.q, np.zeros(n)), (it, part),
                         check_invariants=True),
            solve_dual(p, Shifts(np.zeros(n), shifts.r), (it, part),
                       check_invariants=True),
        ]
        for out in outs:
            assert out.status == "optimal"
            assert isinstance(factor_kb(p, out.partition.basic),
                              KktFactorization)


def test_dual_monotone_objective_random():
    from pdqp.driver import init_shifts
    from pdqp.kkt import factor_kb, find_soc_basis
    for p in random_instances(41, 20, kinds=("feasible",)):
        part = find_soc_basis(p, KktBasis(p))
        shifts, it = init_shifts(p, part, factor_kb(p, part.basic))
        records = []
        s1 = Shifts(np.zeros(p.n), shifts.r)
        out = solve_dual(p, s1, (it, part), trace=records.append,
                         check_invariants=True)
        for r in records:
            if not np.isfinite(r.step.alpha):
                continue
            assert r.f_dual >= r.f_dual_before - 1e-9 * (1 + abs(r.f_dual_before))
        if out.status == "optimal":
            assert check_optimality(p, s1, out.iterate).optimal


def test_direct_solve_dual_keeps_free_nonbasic_dual():
    # A free variable left nonbasic is a temporary bound even without the
    # driver: a direction that would move its dual blocks with a zero step
    # and makes it basic.  On this instance the first base direction has
    # dz_0 != 0.
    from pdqp.driver import init_shifts
    from pdqp.kkt import factor_kb
    rng = np.random.default_rng(1)
    n, m = 5, 2
    g = rng.normal(size=(n, n))
    p = QpProblem(H=g.T @ g / n, M=np.zeros((m, m)), A=rng.normal(size=(m, n)),
                  b=rng.normal(size=m), c=rng.normal(size=n),
                  free=frozenset({0}))
    part = Partition(basic=[1, 2, 3, 4], nonbasic=[0])
    shifts, it = init_shifts(p, part, factor_kb(p, part.basic))
    s = Shifts(np.zeros(n), shifts.r)
    records = []
    out = solve_dual(p, s, (it, part), trace=records.append,
                     check_invariants=True)
    assert (records[0].kind, records[0].step.blocking) == ("base", 0)
    assert records[0].step.alpha == 0.0
    assert out.status == "optimal"
    assert out.iterate.z[0] == it.z[0]
    assert 0 in out.partition.basic
    assert check_optimality(p, s, out.iterate).optimal


@pytest.mark.parametrize("x2", [-1.0, 1.0], ids=["below", "above"])
def test_direct_solve_dual_repairs_a_fixed_nonbasic_primal(x2):
    # A fixed variable's dual is unrestricted, so the dual method has no
    # guarded bound there and must drive x_j + q_j to zero from either
    # side, as the primal method does for a free z_j + r_j.  Index 2 is
    # fixed and nonbasic at x_2 = -1 (below its bound) or +1 (above it).
    p = QpProblem(H=np.diag([1.0, 1.0, 0.0]), M=np.zeros((1, 1)),
                  A=np.ones((1, 3)), b=np.array([x2 + 1.0]), c=np.zeros(3),
                  fixed=frozenset({2}))
    x, y = np.array([1.0, 0.0, x2]), np.array([0.5])
    z = p.H @ x + p.c - p.A.T @ y
    s = Shifts(np.zeros(3), np.array([-z[0], max(-z[1], 0.0), 0.0]))
    part = Partition.from_basic(3, [0])
    records = []
    out = solve_dual(p, s, (Iterate(x, y, z), part), trace=records.append,
                     check_invariants=True)
    assert 2 in [rec.direction.freed for rec in records]
    assert out.status == "optimal"
    assert out.iterate.x[2] == 0.0
    assert check_optimality(p, s, out.iterate).optimal
