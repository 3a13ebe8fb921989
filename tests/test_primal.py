import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdqp import (InvariantError, Iterate, Partition, QpProblem, Shifts,
                  StartConditionError, check_optimality, solve_primal)
from pdqp import steps
from pdqp.kkt import KktBasis
from pdqp.primal import primal_base, primal_intermediate

from conftest import random_instances


def start_p2(p2):
    it = Iterate(np.array([1.0, 0.0]), np.array([3.0]), np.array([0.0, -3.0]))
    part = Partition(basic=[0], nonbasic=[1])
    return it, part


def test_primal_base_hand_trace(p1):
    s = Shifts.zero(2)
    it = Iterate(np.array([0.0, 1.0]), np.array([1.0]), np.array([-1.0, 0.0]))
    part = Partition(basic=[1], nonbasic=[0])
    part.free_index(0)
    step, d = primal_base(p1, s, part, it, 0, basis=KktBasis(p1))
    assert d.dz_l == pytest.approx(2.0)
    assert step.alpha_star == pytest.approx(0.5)
    assert step.alpha_max == pytest.approx(1.0)
    assert step.alpha == pytest.approx(0.5)
    assert step.hit_target and step.blocking is None
    assert_allclose(it.x, [0.5, 0.5])
    assert_allclose(it.y, [0.5])
    assert it.z[0] == 0.0


def test_primal_base_unbounded_certificate(p_unbounded):
    s = Shifts.zero(2)
    it = Iterate(np.zeros(2), np.zeros(1), np.array([-1.0, 0.0]))
    part = Partition(basic=[1], nonbasic=[0])
    part.free_index(0)
    step, d = primal_base(p_unbounded, s, part, it, 0,
                          basis=KktBasis(p_unbounded))
    assert np.isinf(step.alpha)
    assert d.dz_l == 0.0
    assert np.all(d.dx >= 0)
    # iterate untouched by an unapplied infinite step
    assert_allclose(it.x, [0.0, 0.0])


def test_primal_base_guards_sign(p1):
    s = Shifts.zero(2)
    it = Iterate(np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0, 0.0]))
    part = Partition(basic=[1], nonbasic=[0])
    part.free_index(0)
    with pytest.raises(StartConditionError):
        primal_base(p1, s, part, it, 0, basis=KktBasis(p1))


def test_primal_intermediate_alpha_arithmetic(p1):
    # After the blocking swap on p2's trace: B = {}, l = 1, z_l = -1.
    p2 = QpProblem(H=p1.H, M=p1.M, A=p1.A, b=p1.b, c=np.array([2.0, 0.0]))
    s = Shifts.zero(2)
    it = Iterate(np.array([0.0, 1.0]), np.array([2.0]), np.array([0.0, -1.0]))
    part = Partition(basic=[], nonbasic=[0], freed=1)
    step, d = primal_intermediate(p2, s, part, it, 1,
                                  basis=KktBasis(p2))
    assert d.dz_l == 1.0
    assert step.alpha_star == pytest.approx(1.0)
    assert step.alpha == pytest.approx(1.0)
    assert step.hit_target
    assert_allclose(it.x, [0.0, 1.0])
    assert_allclose(it.y, [1.0])
    assert_allclose(it.z, [1.0, 0.0])


def test_degenerate_zero_step_swaps_and_continues():
    # Basic variable already at its bound blocks with a zero step; the
    # swap happens, the intermediate subiteration finishes the job.
    p = QpProblem(H=np.eye(3), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0, 1.0]]), b=np.array([0.0]),
                  c=np.array([-1.0, 1.0, 0.0]))
    s = Shifts.zero(3)
    it = Iterate(np.zeros(3), np.zeros(1), np.array([-1.0, 1.0, 0.0]))
    part = Partition(basic=[2], nonbasic=[0, 1])
    records = []
    out = solve_primal(p, s, (it, part), trace=records.append,
                       check_invariants=True)
    assert out.status == "optimal"
    assert records[0].kind == "base"
    assert records[0].step.alpha == 0.0
    assert records[0].step.blocking == 2
    assert any(r.kind == "intermediate" for r in records)
    assert_allclose(out.iterate.x, [0.0, 0.0, 0.0])
    assert np.all(out.iterate.z >= -1e-12)


def test_solve_primal_full_trace(p2):
    it, part = start_p2(p2)
    out = solve_primal(p2, Shifts.zero(2), (it, part), check_invariants=True)
    assert out.status == "optimal"
    assert_allclose(out.iterate.x, [0.0, 1.0], atol=1e-12)
    assert_allclose(out.iterate.y, [1.0], atol=1e-12)
    assert_allclose(out.iterate.z, [1.0, 0.0], atol=1e-12)
    assert out.iterations == 1
    assert out.subiterations == 2
    assert out.partition.basic == [1]


def test_solve_primal_already_optimal(p1):
    it = Iterate(np.array([0.5, 0.5]), np.array([0.5]), np.zeros(2))
    part = Partition(basic=[0, 1], nonbasic=[])
    out = solve_primal(p1, Shifts.zero(2), (it, part))
    assert out.status == "optimal"
    assert out.iterations == 0


def test_solve_primal_unbounded(p_unbounded):
    it = Iterate(np.zeros(2), np.zeros(1), np.array([-1.0, 0.0]))
    part = Partition(basic=[1], nonbasic=[0])
    out = solve_primal(p_unbounded, Shifts.zero(2), (it, part))
    assert out.status == "dual_infeasible"
    assert out.subiterations == 1
    assert out.certificate is not None
    assert out.certificate.dz_l == 0.0


def test_solve_primal_iteration_limit():
    # Two dual violations need two iterations; cap at one.
    p = QpProblem(H=np.eye(3), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0, 1.0]]), b=np.array([1.0]),
                  c=np.array([-3.0, -3.0, 0.0]))
    it = Iterate(np.array([0.0, 0.0, 1.0]), np.array([1.0]),
                 np.array([-4.0, -4.0, 0.0]))
    part = Partition(basic=[2], nonbasic=[0, 1])
    out = solve_primal(p, Shifts.zero(3), (it, part), max_iterations=1)
    assert out.status == "iteration_limit"
    assert out.iterations == 1


@pytest.mark.parametrize("x,y,z,basic,error,match", [
    # Each state satisfies the equality system (but the first) and
    # violates one clause only.
    ([5.0, 5.0], 0.0, [0.0, 0.0], [0], StartConditionError, "equality"),
    # guarded: basic x_0 below its bound
    ([-1.0, 2.0], 2.0, [-1.0, 0.0], [0, 1], StartConditionError,
     r"primal start: guarded x\[0\]"),
    # idle: nonbasic x_1 off its bound
    ([0.5, 0.5], 2.5, [0.0, -2.0], [0], StartConditionError,
     r"primal start: idle x\[1\]"),
    # relaxed entry: basic z_0 above its bound
    ([1.0, 0.0], 2.0, [1.0, -2.0], [0], StartConditionError,
     r"primal start: relaxed z\[0\]"),
    # invariant: a step that ignores the blocking x_0 leaves it at -0.5
    ([1.0, 0.0], 3.0, [0.0, -3.0], [0], InvariantError,
     r"primal invariant: guarded x\[0\]"),
], ids=["equality", "guarded", "idle", "relaxed", "invariant"])
def test_solve_primal_rejects_bad_start(p2, monkeypatch, x, y, z, basic,
                                        error, match):
    it = Iterate(np.array(x), np.array([y]), np.array(z))
    part = Partition(basic=basic, nonbasic=[j for j in range(2)
                                            if j not in basic])
    if error is InvariantError:
        monkeypatch.setattr(steps, "ratio_test",
                            lambda *a, **k: (np.inf, None))
    with pytest.raises(error, match=match):
        solve_primal(p2, Shifts.zero(2), (it, part), check_invariants=True)


@pytest.mark.parametrize("factor", [10.0, 0.5])
def test_guarded_value_limit_of_the_entry_check(factor):
    # H = I, A = [1 1], b = 1 and c = (1 + 2e, 0): the point with both
    # indices basic and z = 0 is x = (-e, 1 + e), y = 1 + e, so basic x_0
    # lies e below its bound, ``factor`` times bound_tol = fea_tol.
    e = factor * 1e-6
    p = QpProblem(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                  b=np.array([1.0]), c=np.array([1.0 + 2.0 * e, 0.0]))
    start = (Iterate([-e, 1.0 + e], [1.0 + e], [0.0, 0.0]),
             Partition(basic=[0, 1], nonbasic=[]))
    if factor > 1.0:
        with pytest.raises(StartConditionError,
                           match=r"^primal start: guarded x\[0\]"):
            solve_primal(p, Shifts.zero(2), start, fea_tol=1e-6)
    else:
        out = solve_primal(p, Shifts.zero(2), start, fea_tol=1e-6)
        assert out.status == "optimal" and out.iterations == 0


def test_solve_primal_relaxed_basic_selection(p2):
    # A basic dual below its bound (z_B + r_B < 0) must be repaired by
    # freeing the basic index directly.
    it = Iterate(np.array([0.0, 1.0]), np.array([2.0]), np.array([0.0, -1.0]))
    part = Partition(basic=[1], nonbasic=[0])
    out = solve_primal(p2, Shifts.zero(2), (it, part), check_invariants=True)
    assert out.status == "optimal"
    assert_allclose(out.iterate.z, [1.0, 0.0], atol=1e-12)


def test_primal_feasibility_and_monotonicity_random():
    from pdqp.driver import init_shifts
    from pdqp.kkt import factor_kb, find_soc_basis
    for p in random_instances(23, 20, kinds=("feasible",)):
        part = find_soc_basis(p, KktBasis(p))
        shifts, it = init_shifts(p, part, factor_kb(p, part.basic))
        records = []
        s1 = Shifts(shifts.q, np.zeros(p.n))
        out = solve_primal(p, s1, (it, part), trace=records.append,
                           check_invariants=True)
        for r in records:
            if not np.isfinite(r.step.alpha):
                continue
            assert r.f_primal <= r.f_primal_before + 1e-9 * (1 + abs(r.f_primal_before))
        if out.status == "optimal":
            assert check_optimality(p, s1, out.iterate).optimal


def test_primal_strict_decrease_on_nondegenerate_steps(p2):
    it, part = start_p2(p2)
    records = []
    solve_primal(p2, Shifts.zero(2), (it, part), trace=records.append)
    moved = [r for r in records if r.step.alpha > 0
             and abs(r.direction.dx_l) > 0 and np.isfinite(r.step.alpha)]
    assert moved
    for r in moved:
        if abs(r.direction.dx_l * r.step.alpha) > 1e-12:
            assert r.f_primal < r.f_primal_before
