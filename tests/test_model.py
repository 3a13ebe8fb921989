import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from pdqp import (Direction, GeneralQp, Iterate, Partition, ProblemError,
                  QpProblem, Shifts, SolveConfig, check_optimality,
                  enumerate_solve, solve_pdqp, solve_standard, standardize)
from pdqp import driver, dual, model, primal, steps
from pdqp.driver import STRATEGIES
from pdqp.kkt import KktBasis, factor_kb
from pdqp.model import _check_psd, effective_shifts, objectives, residuals
from pdqp.primal import primal_base

from conftest import (criterion7_instance, free_start_cases,
                      mixed_instances, random_instances)


def it(x, y, z):
    return Iterate(np.asarray(x, float), np.asarray(y, float),
                   np.asarray(z, float))


def test_primal_objective_symmetric_point(p1):
    s = Shifts.zero(2)
    assert objectives(p1, s, it([0.5, 0.5], [0.5], [0, 0]))[0] == 0.25


def test_primal_objective_zero_point(p2):
    s = Shifts.zero(2)
    assert objectives(p2, s, it([0, 0], [0], [0, 0]))[0] == 0.0


def test_primal_objective_with_dual_shift(p2):
    s = Shifts(np.zeros(2), np.array([0.0, 3.0]))
    assert objectives(p2, s, it([1, 0], [3], [0, -3]))[0] == 2.5


def test_dual_objective_at_p1_optimum(p1):
    s = Shifts.zero(2)
    assert objectives(p1, s, it([0.5, 0.5], [0.5], [0, 0]))[1] == 0.25


def test_dual_objective_zero_point(p1):
    s = Shifts.zero(2)
    assert objectives(p1, s, it([0, 0], [0], [7.0, -3.0]))[1] == 0.0


def test_gap_identity_on_shifted_pair(p1):
    s = Shifts(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    sol = enumerate_solve(p1, s)
    assert sol.status == "optimal"
    point = it(sol.x, sol.y, sol.z)
    fp, fd = objectives(p1, s, point)
    gap = fp - fd
    assert abs(gap + s.q @ s.r) <= 1e-9 * (1 + abs(gap))


def _formulas(p, s, point):
    """f_primal and f_dual, each written out and evaluated alone."""
    x, y, z = point.x, point.y, point.z
    return (float(0.5 * x @ p.H @ x + 0.5 * y @ p.M @ y + p.c @ x + s.r @ x),
            float(-0.5 * x @ p.H @ x - 0.5 * y @ p.M @ y + p.b @ y - s.q @ z))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def test_trace_record_objectives_have_the_bits_of_their_formulas(
        monkeypatch):
    # Nonzero x, y, z, q, r and M, so that every term of both formulas
    # counts.  The engine evaluates each quadratic form once per point and
    # hands a record's "after" pair to the next record as its "before"
    # pair; each of the four fields must still have the bits of its
    # formula at the point before or after its step, under the shifts the
    # engine evaluated it with.
    p = QpProblem(H=[[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
                  M=[[0.7]], A=[[1.0, 2.0, 3.0]], b=[1.5],
                  c=[0.3, -1.2, 0.7])
    shifts, points, seen = [], [], []

    def objectives_at(p, s, point):
        shifts.append(s)
        return objectives(p, s, point)

    def stepping(fn):
        def step(p, s, part, point, l, **kw):
            before = point.copy()
            out = fn(p, s, part, point, l, **kw)
            points.append((before, point.copy()))
            return out
        return step

    monkeypatch.setattr(steps, "objectives", objectives_at)
    for module, name in ((primal, "primal_base"),
                         (primal, "primal_intermediate"),
                         (dual, "dual_base"), (dual, "dual_intermediate")):
        monkeypatch.setattr(module, name, stepping(getattr(module, name)))

    def record(rec):
        seen.append((rec, shifts[-1], points[-1]))

    # The driver's solve ends at zero shifts; a primal solve from the
    # all-basic start under nonzero q and r keeps both shifts live.
    solve_standard(p, SolveConfig(trace=record))
    part = Partition.from_basic(3, [0, 1, 2])
    s, start = driver.init_shifts(p, part, factor_kb(p, [0, 1, 2]))
    primal.solve_primal(p, Shifts(s.q, -np.ones(3)), (start, part),
                        trace=record)
    # Records of both methods, over several iterations and several
    # subiterations of one.
    assert [(rec.method, rec.kind, rec.iteration) for rec, _, _ in seen] \
        == [("dual", "base", 1), ("dual", "base", 2),
            ("primal", "intermediate", 1), ("primal", "intermediate", 2),
            ("primal", "intermediate", 2)]
    assert any(all(np.count_nonzero(v) for v in (eff.q, eff.r, after.y,
                                                 after.z))
               for _, eff, (_, after) in seen)
    for rec, eff, (before, after) in seen:
        fields = (rec.f_primal_before, rec.f_dual_before, rec.f_primal,
                  rec.f_dual)
        assert _bits(fields) == _bits(_formulas(p, eff, before)
                                      + _formulas(p, eff, after))
        # A zero step leaves the point, and so both objectives, alone.
        assert len(set(fields)) == (4 if rec.step.alpha else 2)


def test_objectives_have_the_bits_of_their_formulas_at_stage_ends(
        monkeypatch):
    # Every stage end point of the first 50 suite problems under every
    # strategy, at the stage's own shifts.
    stage_log = driver._stage_log
    ends = []

    def recorded(p, s, out):
        ends.append((p, s, out.iterate))
        return stage_log(p, s, out)

    monkeypatch.setattr(driver, "_stage_log", recorded)
    for p in random_instances(20260810, 50):
        for strategy in STRATEGIES:
            try:
                solve_standard(p, SolveConfig(strategy=strategy))
            except ProblemError:    # a one-stage strategy off its start
                pass
    assert len(ends) > 250
    for p, s, point in ends:
        assert _bits(objectives(p, s, point)) == _bits(_formulas(p, s, point))


def test_residuals_at_optimum(p1):
    stat, eq = residuals(p1, it([0.5, 0.5], [0.5], [0, 0]))
    assert np.max(np.abs(stat)) < 1e-14
    assert np.max(np.abs(eq)) < 1e-14


def test_residuals_zero_data():
    p = QpProblem(H=np.zeros((2, 2)), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0]]), b=np.zeros(1), c=np.zeros(2))
    stat, eq = residuals(p, it([0, 0], [0], [0, 0]))
    assert np.all(stat == 0) and np.all(eq == 0)


def test_residuals_linear_evaluation(p1):
    stat, eq = residuals(p1, it([0, 0], [0], [0, 0]))
    assert_allclose(stat, p1.c)
    assert_allclose(eq, [-1.0])


def test_check_optimality_accepts_p1_optimum(p1):
    rep = check_optimality(p1, Shifts.zero(2), it([0.5, 0.5], [0.5], [0, 0]))
    assert rep.optimal
    assert rep.worst_dual_violation == 0.0


def test_check_optimality_flags_dual_violation(p1):
    rep = check_optimality(p1, Shifts.zero(2), it([0, 1], [1], [-1, 0]))
    assert not rep.optimal
    assert rep.worst_dual_violation == pytest.approx(1.0)


def test_check_optimality_flags_equality_residual(p1):
    shifted = QpProblem(H=p1.H, M=p1.M, A=p1.A, b=p1.b + 1.0, c=p1.c)
    rep = check_optimality(shifted, Shifts.zero(2),
                           it([0.5, 0.5], [0.5], [0, 0]))
    assert not rep.optimal
    assert rep.equality_residual == pytest.approx(1.0)


@pytest.mark.parametrize("factor, optimal", [(10.0, False), (0.5, True)])
def test_check_optimality_stationarity_bound(p2, factor, optimal):
    # p2's optimum x = (0, 1), y = 1, z = (1, 0) with y raised by delta:
    # only the stationarity residual moves, to exactly delta on each row.
    limit = model.DEFAULT_TOL * p2.data_scale()
    delta = factor * limit
    rep = check_optimality(p2, Shifts.zero(2), it([0, 1], [1 + delta], [1, 0]))
    assert rep.stationarity_residual == pytest.approx(delta, rel=1e-6)
    assert (rep.equality_residual, rep.worst_primal_violation,
            rep.worst_dual_violation, rep.complementarity) == (0, 0, 0, 0)
    assert rep.optimal == optimal


@pytest.mark.parametrize("factor, optimal", [(10.0, False), (0.5, True)])
def test_check_optimality_complementarity_bound(p2, factor, optimal):
    # r_1 > 0 on p2's basic index 1 (x_1 = 1) makes (x+q)'(z+r) = r_1
    # while every residual and bound violation stays zero.  With max|y|
    # and max|x+q| both 1, the bound is bound_tol("z") itself.
    limit = model.bound_tol("z", 1.0, model.DEFAULT_TOL, model.DEFAULT_TOL)
    r1 = factor * limit
    rep = check_optimality(p2, Shifts(np.zeros(2), np.array([0.0, r1])),
                           it([0, 1], [1], [1, 0]))
    assert rep.complementarity == r1
    assert (rep.stationarity_residual, rep.equality_residual,
            rep.worst_primal_violation, rep.worst_dual_violation) \
        == (0, 0, 0, 0)
    assert rep.optimal == optimal


def _p1_with(**sets):
    return QpProblem(H=np.eye(2), M=np.zeros((1, 1)), A=[[1.0, 1.0]],
                     b=[1.0], c=np.zeros(2), **sets)


NAN = np.nan


@pytest.mark.parametrize("sets, point, field", [
    ({}, ([0.5, NAN], [0.0], [0.0, 0.0]), "worst_primal_violation"),
    ({}, ([0.5, 0.5], [0.5], [NAN, 0.0]), "worst_dual_violation"),
    ({"fixed": [1]}, ([NAN, 0.5], [0.5], [0.0, 0.0]),
     "worst_primal_violation"),
    ({"free": [1]}, ([0.5, 0.5], [0.5], [0.0, NAN]), "worst_dual_violation"),
], ids=["x", "z", "x-with-fixed", "free-z"])
def test_check_optimality_reports_nan_violations(sets, point, field):
    # A NaN entry of x or z makes its violation NaN, as it makes the
    # stationarity residual NaN, rather than 0.0.
    rep = check_optimality(_p1_with(**sets), Shifts.zero(2), it(*point))
    assert np.isnan(getattr(rep, field))
    assert np.isnan(rep.stationarity_residual)
    assert not rep.optimal


@pytest.mark.parametrize("sets", [{}, {"free": [1]}], ids=["plain", "free"])
def test_check_optimality_reports_zero_violations_as_plus_zero(sets):
    # x + q and z + r vanish exactly, so every entry whose negation is
    # taken is -0.0; the report still holds 0.0.
    rep = check_optimality(_p1_with(**sets), Shifts.zero(2),
                           it([0.0, 0.0], [0.0], [0.0, 0.0]))
    for value in (rep.worst_primal_violation, rep.worst_dual_violation):
        assert value == 0.0 and not np.signbit(value)


def test_check_optimality_rejects_bad_tolerances(p1):
    with pytest.raises(ValueError):
        check_optimality(p1, Shifts.zero(2), it([0, 0], [0], [0, 0]), -1.0, 1e-6)


def test_gap_identity_random_oracle_solutions():
    for p in random_instances(31, 25, kinds=("feasible",)):
        sol = enumerate_solve(p, Shifts.zero(p.n))
        if sol.status != "optimal":
            continue
        point = it(sol.x, sol.y, sol.z)
        fp, fd = objectives(p, Shifts.zero(p.n), point)
        assert abs(fp - fd) <= 1e-9 * (1 + abs(fp))


def test_rejects_indefinite_hessian():
    with pytest.raises(ProblemError, match="positive semidefinite"):
        QpProblem(H=np.array([[1.0, 0.0], [0.0, -1.0]]), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0]]), b=np.zeros(1), c=np.zeros(2))


@pytest.mark.parametrize("name", ["H", "M", "A", "b", "c"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_data(name, bad):
    data = dict(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                b=np.zeros(1), c=np.zeros(2))
    data[name] = data[name].copy()
    data[name].flat[0] = bad
    with pytest.raises(ProblemError, match=f"^{name} has non-finite entries"):
        QpProblem(**data)


@pytest.mark.parametrize("change,message", [
    ({"H": np.eye(3)}, "H must be 2x2, got (3, 3)"),
    ({"M": np.zeros((2, 2))}, "M must be 1x1, got (2, 2)"),
    ({"A": np.ones((1, 3))}, "A must be 1x2, got (1, 3)"),
    ({"free": frozenset({2})}, "free index 2 is not in 0..1"),
    ({"fixed": frozenset({-1, 0})}, "fixed index -1 is not in 0..1"),
], ids=["H", "M", "A", "free", "fixed"])
def test_rejects_misshapen_data(change, message):
    data = dict(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                b=np.zeros(1), c=np.zeros(2))
    with pytest.raises(ProblemError, match=f"^{re.escape(message)}$"):
        QpProblem(**{**data, **change})


@pytest.mark.parametrize("change,same", [
    ({"A": [1.0, 1.0]}, {"A": [[1.0, 1.0]]}),
    ({"H": 2.0, "A": 1.0, "c": [0.0]}, {"H": [[2.0]], "A": [[1.0]],
                                        "c": [0.0]}),
    ({"M": [], "A": [], "b": []}, {"M": np.zeros((0, 0)),
                                   "A": np.zeros((0, 2)), "b": []}),
], ids=["A-vector-is-one-row", "scalars-are-1x1", "empty-for-m-0"])
def test_accepts_matrices_under_the_one_reading(change, same):
    # A vector A with m = 1 used to be rejected as "A must be 1x2, got
    # (2,)", where H, M and GeneralQp's Ahat read a vector as one row.
    data = dict(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                b=np.zeros(1), c=np.zeros(2))
    p, q = QpProblem(**{**data, **change}), QpProblem(**{**data, **same})
    for name in ("H", "M", "A"):
        assert_array_equal(getattr(p, name), getattr(q, name), strict=True)


@pytest.mark.parametrize("name,value", [
    ("b", np.zeros((1, 1))), ("c", np.zeros((2, 1))), ("c", np.zeros((1, 2)))])
def test_rejects_b_or_c_that_is_not_a_vector(name, value):
    # Such a b or c used to pass construction and crash the solve with a
    # plain ValueError.
    data = dict(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                b=np.zeros(1), c=np.zeros(2))
    data[name] = value
    message = f"{name} must be a vector, got shape {value.shape}"
    with pytest.raises(ProblemError, match=f"^{re.escape(message)}$"):
        QpProblem(**data)


def test_scalar_b_and_c_are_vectors_of_length_one():
    p = QpProblem(H=np.eye(1), M=np.zeros((1, 1)), A=np.ones((1, 1)), b=2.0,
                  c=-1.0)
    assert p.b.shape == p.c.shape == (1,)


@pytest.mark.parametrize("free,fixed,want", [
    ([0], (), ({0}, set())),
    ((), np.array([2]), (set(), {2})),
    (range(2), [np.int64(2)], ({0, 1}, {2})),
    ({np.int32(1)}, iter([0]), ({1}, {0})),
])
def test_index_sets_take_any_iterable_of_integers(free, fixed, want):
    p = QpProblem(H=np.eye(3), M=np.zeros((1, 1)), A=np.ones((1, 3)),
                  b=np.ones(1), c=np.zeros(3), free=free, fixed=fixed)
    assert (p.free, p.fixed) == want
    assert isinstance(p.free, frozenset) and isinstance(p.fixed, frozenset)
    assert all(type(i) is int for i in p.free | p.fixed)
    assert p.free_mask.nonzero()[0].tolist() == sorted(want[0])
    assert p.fixed_mask.nonzero()[0].tolist() == sorted(want[1])


@pytest.mark.parametrize("change,message", [
    ({"free": frozenset([0.0])}, "free index 0.0 is not an integer"),
    ({"free": frozenset([True])}, "free index True is not an integer"),
    ({"fixed": [np.True_]}, "fixed index np.True_ is not an integer"),
    ({"fixed": [np.float64(1.0)]},
     "fixed index np.float64(1.0) is not an integer"),
    ({"free": "0"}, "free index '0' is not an integer"),
    ({"fixed": 1}, "fixed must be an iterable of integer indices, got 1"),
])
def test_index_sets_reject_non_integer_entries(change, message):
    data = dict(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                b=np.zeros(1), c=np.zeros(2))
    with pytest.raises(ProblemError, match=f"^{re.escape(message)}$"):
        QpProblem(**data, **change)


def test_rejects_asymmetric_hessian():
    with pytest.raises(ProblemError, match="symmetric"):
        QpProblem(H=np.array([[1.0, 0.5], [0.0, 1.0]]), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0]]), b=np.zeros(1), c=np.zeros(2))


def test_rejects_rank_deficient_rows():
    with pytest.raises(ProblemError, match="rank deficient"):
        QpProblem(H=np.eye(2), M=np.zeros((2, 2)),
                  A=np.array([[1.0, 1.0], [2.0, 2.0]]),
                  b=np.zeros(2), c=np.zeros(2))


def test_negative_zeros_of_symmetric_h_and_m_become_zeros():
    # An exactly symmetric H or M is copied as H + 0.0, which maps -0.0 to
    # 0.0 as the lower-plus-upper triangle sum of an asymmetric one does.
    h = np.array([[1.0, -0.0, 0.5], [-0.0, -0.0, 0.0], [0.5, 0.0, 2.0]])
    m = np.array([[-0.0]])
    p = QpProblem(H=h, M=m, A=np.array([[1.0, 1.0, 1.0]]), b=np.zeros(1),
                  c=np.zeros(3))
    for got, want in ((p.H, h), (p.M, m)):
        assert np.array_equal(got, want)
        assert not np.any(np.signbit(got[got == 0.0]))
    asym = h.copy()
    asym[0, 2] += 1e-14
    q = QpProblem(H=asym, M=m, A=p.A, b=p.b, c=p.c)
    assert q.H[2, 0] == q.H[0, 2] == 0.5
    assert not np.any(np.signbit(q.H[q.H == 0.0]))


def _full_row_rank(a: np.ndarray) -> bool:
    """The row-rank rule's verdict on a (``row_basis`` keeps every row)."""
    return model.row_basis(a.copy()).size == a.shape[0]


def test_row_rank_verdict_matches_pivoted_qr():
    # row_basis calls dgeqp3 directly; its rank verdict and its rows are
    # those of scipy.linalg.qr with pivoting on the transpose of the rows
    # scaled to infinity norm in [0.5, 1), relative to the largest pivot.
    rng = np.random.default_rng(23)
    for _ in range(200):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        rank = int(rng.integers(0, m + 1))
        a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        if rng.random() < 0.3:
            a = np.round(a)
        top = np.abs(a).max(axis=1, keepdims=True)
        unit = a / np.where(top > 0.0, 2.0 ** np.frexp(top)[1], 1.0)
        r, piv = scipy.linalg.qr(unit.T, mode="r", pivoting=True)
        diag = np.abs(np.diag(r))
        rank = int(np.sum(diag > model.RANK_TOL * diag[0]))
        assert _full_row_rank(a) == (rank == m)
        assert_array_equal(model.row_basis(a.copy()), piv[:rank])


def test_row_rank_verdict_does_not_depend_on_the_rows_scales():
    # Rows scaled by 1e-12 to 1e12, one factor each, get the verdict of
    # the same rows at unit scale: full row rank exactly when the rows
    # are independent.
    rng = np.random.default_rng(29)
    for _ in range(200):
        m, n = int(rng.integers(2, 6)), int(rng.integers(1, 9))
        rank = int(rng.integers(1, m + 1))
        a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        scaled = a * 10.0 ** rng.integers(-12, 13, size=(m, 1))
        assert _full_row_rank(scaled) == _full_row_rank(a) \
            == (min(rank, n) == m)


def test_accepts_semidefinite_with_regularizer():
    p = QpProblem(H=np.zeros((2, 2)), M=1e-2 * np.eye(1),
                  A=np.array([[0.0, 0.0]]), b=np.zeros(1), c=np.zeros(2))
    assert p.n == 2 and p.m == 1


def test_rejects_overlapping_kinds():
    with pytest.raises(ProblemError, match="both free and fixed"):
        QpProblem(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                  b=np.zeros(1), c=np.zeros(2),
                  free=frozenset({0}), fixed=frozenset({0}))


def test_shifts_require_finite_entries():
    with pytest.raises(ProblemError):
        Shifts(np.array([np.inf, 0.0]), np.zeros(2))


def test_shifts_require_equal_lengths():
    with pytest.raises(ProblemError, match="^q and r must have the same "
                       "length$"):
        Shifts([0.0, 0.0], [0.0])


def test_zero_shifts_are_read_only_zeros():
    zero = Shifts.zero(3)
    assert not zero.q.flags.writeable and not np.any(zero.r)


def test_partition_masks_follow_every_move():
    rng = np.random.default_rng(5)
    part = Partition(basic=[0, 2, 5], nonbasic=[1, 3, 4, 6])
    for _ in range(200):
        j = int(rng.integers(7))
        part.free_index(j)
        part.bind_freed(str(rng.choice(["basic", "nonbasic"])))
        k = int(rng.integers(7))
        part.move(k, "nonbasic" if k in part.basic else "basic")
        for one in (part, part.copy()):
            assert one.basic == sorted(one.basic)
            assert one.nonbasic == sorted(one.nonbasic)
            assert np.array_equal(one.basic_mask, model.index_mask(7, one.basic))
            assert np.array_equal(one.nonbasic_mask,
                                  model.index_mask(7, one.nonbasic))
        part.validate(7)
    with pytest.raises(model.InvariantError):
        part.free_index(7)


def test_partition_state_is_one_mask_and_the_freed_index():
    part = Partition(basic=[0, 2], nonbasic=[1, 3], freed=4)
    for one in (part, part.copy(), Partition.from_basic(3, [1])):
        assert sorted(vars(one)) == ["basic_mask", "freed"]
    assert part.nonbasic_mask.tolist() == [False, True, False, True, False]
    with pytest.raises(AttributeError):
        part.nonbasic_mask = np.ones(5, dtype=bool)
    part.nonbasic_mask[1] = False       # a derived copy: the state stays
    assert (part.basic, part.nonbasic, part.freed) == ([0, 2], [1, 3], 4)


def test_partition_validates_cover():
    with pytest.raises(Exception):
        part = Partition(basic=[0], nonbasic=[0, 1])
        part.validate(2)


def _rejects(action):
    def check():
        with pytest.raises(model.InvariantError):
            action()
    return check


def _copy_is_independent():
    part = Partition(basic=[0, 2], nonbasic=[1, 3])
    other = part.copy()
    other.free_index(0)
    other.bind_freed("nonbasic")
    other.move(1, "basic")
    assert (part.basic, part.nonbasic, part.freed) == ([0, 2], [1, 3], None)
    assert (other.basic, other.nonbasic) == ([1, 2], [0, 3])


def _from_basic_matches_the_complement():
    # The inputs of the three callers: a sorted list (an initial basis),
    # an index array (basis discovery) and a tuple (oracle enumeration).
    for n, basic in ((5, [1, 3]), (5, np.array([0, 2, 3])), (3, ()),
                     (2, (0, 1))):
        part = Partition.from_basic(n, basic)
        part.validate(n)
        chosen = [int(i) for i in basic]
        assert part.basic == chosen
        assert part.nonbasic == [j for j in range(n) if j not in chosen]
        assert all(type(i) is int for i in part.basic + part.nonbasic)


@pytest.mark.parametrize("check", [
    pytest.param(_rejects(lambda: Partition(basic=[0, 0], nonbasic=[1])),
                 id="duplicate-in-basic"),
    pytest.param(_rejects(lambda: Partition(basic=[0], nonbasic=[2, 1, 2])),
                 id="duplicate-in-nonbasic"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[0, 1]).validate(2)),
        id="in-both-sets"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[1], freed=1).validate(2)),
        id="freed-in-a-set"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[2]).validate(3)),
        id="gap"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[1]).validate(3)),
        id="n-too-large"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0, 1], nonbasic=[2]).validate(2)),
        id="n-too-small"),
    pytest.param(_rejects(
        lambda: Partition(basic=[-1], nonbasic=[0]).validate(1)),
        id="negative-index"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[2], freed=1).free_index(0)),
        id="second-freed-index"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[2]).free_index(1)),
        id="free-absent-index"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[1]).free_index(2)),
        id="free-out-of-range"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[1]).free_index(-1)),
        id="free-negative"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[1]).move(1, "nonbasic")),
        id="move-not-in-source"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[1]).move(2, "basic")),
        id="move-out-of-range"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[1]).bind_freed("basic")),
        id="bind-without-freed"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0, 1], nonbasic=[2]).move(0, "basics")),
        id="move-into-unknown-set"),
    pytest.param(_rejects(
        lambda: Partition(basic=[0], nonbasic=[2], freed=1).bind_freed(
            "Basic")),
        id="bind-into-unknown-set"),
    pytest.param(_copy_is_independent, id="copy-is-independent"),
    pytest.param(_from_basic_matches_the_complement, id="from-basic"),
])
def test_partition_contract(check):
    check()


def test_effective_shifts_align_relaxed_entries(p1):
    part = Partition(basic=[0], nonbasic=[1])
    point = it([1.0, -0.25], [1.0], [-0.5, 0.5])
    eff = effective_shifts(p1, Shifts.zero(2), part, point)
    assert eff.r[0] == 0.5
    assert eff.q[1] == 0.25


def test_effective_shifts_align_every_boundary_entry(p1):
    # Basic r_i becomes -z_i and nonbasic q_j becomes -x_j however small
    # the gap, so the boundary equalities hold exactly; q_B and r_N keep
    # the given shifts.
    part = Partition(basic=[0], nonbasic=[1])
    point = it([1.0, -0.25], [1.0], [-0.5, 0.5])
    s = Shifts(np.array([0.75, 0.25 + 2.0 ** -40]),
               np.array([0.5 - 2.0 ** -40, -2.0]))
    eff = effective_shifts(p1, s, part, point)
    assert eff.q.tolist() == [0.75, 0.25]
    assert eff.r.tolist() == [0.5, -2.0]


def _dominated_by(factor, off):
    """off, symmetric with a zero diagonal, with each diagonal entry
    ``factor`` times the magnitude sum of the rest of its row."""
    return off + np.diag(factor * np.abs(off).sum(axis=1))


def _psd_cases():
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    spectrum = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.0])
    g = rng.normal(size=(6, 6))
    padded = np.zeros((9, 9))
    padded[:6, :6] = g.T @ g + np.eye(6)
    low = rng.normal(size=(2, 6))

    def with_last(eig):
        lam = spectrum.copy()
        lam[-1] = eig
        return q @ np.diag(lam) @ q.T

    off = np.tril(rng.normal(size=(7, 7)), -1)
    off += off.T
    path = np.eye(6, k=1) + np.eye(6, k=-1)     # its Laplacian is singular

    # (matrix, semidefinite, the rank _check_psd returns when it is)
    return [
        pytest.param(g.T @ g + np.eye(6), True, 6, id="pd"),
        pytest.param(padded, True, 6, id="psd_zero_slack_rows"),
        pytest.param(low.T @ low, True, 2, id="low_rank"),
        pytest.param(with_last(-1e-12), True, 5, id="eig_minus_1e-12"),
        pytest.param(with_last(-1e-6), False, None, id="eig_minus_1e-6"),
        pytest.param(np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 0.0],
                               [0.0, 0.0, 1.0]]), False, None,
                     id="zero_diagonal_row"),
        pytest.param(np.array([[1e-20, 1e-11], [1e-11, 0.0]]), True, 0,
                     id="first_pivot_below_cutoff"),
        # Strictly diagonally dominant beyond DOMINANCE_MARGIN: accepted
        # before any factorization.
        pytest.param(criterion7_instance(12, 3, 2, 5)[0].Hhat, True, 12,
                     id="criterion7_tridiagonal"),
        pytest.param(np.diag([3.0, 0.5, 1e-3, 2.0]), True, 4, id="diagonal"),
        pytest.param(1e-2 * np.eye(5), True, 5, id="regularizer_1e-2_I"),
        pytest.param(_dominated_by(1.0 + 1e-6, off), True, 7,
                     id="row_sum_times_1+1e-6"),
        # Within the margin or short of dominance: the factorizations
        # decide.
        pytest.param(_dominated_by(1.0 + 1e-9, off), True, 7,
                     id="row_sum_times_1+1e-9"),
        pytest.param(_dominated_by(1.0 - 1e-9, off), True, 7,
                     id="row_sum_times_1-1e-9"),
        pytest.param(_dominated_by(1.0 - 1e-9, -path), False, None,
                     id="laplacian_row_sum_times_1-1e-9"),
        pytest.param(-_dominated_by(1.0 + 1e-6, off), False, None,
                     id="dominant_negative_diagonal"),
        pytest.param(np.array([[1.0, -1.0], [-1.0, 1.0]]), True, 1,
                     id="weakly_dominant_singular"),
    ]


def _psd_rank(s):
    """The rank _check_psd returns, or None where it rejects s."""
    try:
        return _check_psd(s, "H")
    except ProblemError:
        return None


def _psd_verdict(s):
    return _psd_rank(s) is not None


def _greedy_psd_verdict(s, tol=model.PSD_PIVOT_TOL):
    """The test _check_psd ran before it used LAPACK's pivoted Cholesky:
    eliminate the largest remaining diagonal while it exceeds the cutoff,
    then reject on a remaining diagonal below -cutoff."""
    k = s.shape[0]
    w = np.array(s, dtype=float)
    cutoff = tol * max(1.0, float(np.max(np.diag(w), initial=0.0)))
    active = np.ones(k, dtype=bool)
    for _ in range(k):
        d = np.where(active, np.diag(w), -np.inf)
        j = int(np.argmax(d))
        piv = d[j]
        if piv <= cutoff:
            break
        col = np.where(active, w[:, j], 0.0)
        w -= np.outer(col, col) / piv
        active[j] = False
    rest = np.diag(w)[active]
    return not (rest.size and float(np.min(rest)) < -cutoff)


# A margin of 1 asks for 2 s_ii > 2 sum_j |s_ij|, which no row passes since
# the sum holds |s_ii|: the pivoted Cholesky decides.
_NO_DOMINANCE = 1.0


def _zero_padded(s):
    """s with two zero rows and columns after it, around it, and one of
    them inside it: its rows then form a prefix, an interior run and a
    scattered set of the nonzero rows that ``_check_psd`` gathers."""
    k = s.shape[0]
    out = []
    for live in (list(range(k)), list(range(1, k + 1)),
                 [0] + list(range(2, k + 1))):
        t = np.zeros((k + 2, k + 2))
        t[np.ix_(live, live)] = s
        out.append(t)
    return out


@pytest.mark.parametrize("s,expected,rank", _psd_cases())
def test_check_psd_matches_greedy_verdict(monkeypatch, s, expected, rank):
    # The rank is the same whether the dominance test or dpstrf settles
    # the verdict, and wherever zero rows lie.
    assert _greedy_psd_verdict(s) is expected
    cases = [s] + _zero_padded(s)
    for margin in (model.DOMINANCE_MARGIN, _NO_DOMINANCE):
        monkeypatch.setattr(model, "DOMINANCE_MARGIN", margin)
        assert [_psd_rank(t) for t in cases] == [rank] * 4


def _counting_dpstrf(monkeypatch):
    calls = []
    dpstrf = scipy.linalg.lapack.dpstrf
    monkeypatch.setattr(model, "lapack", SimpleNamespace(
        dpstrf=lambda a, **kw: calls.append(a.shape) or dpstrf(a, **kw)))
    return calls


@pytest.mark.parametrize("factor,factored", [
    (4.0, False), (1.0 + 1e-6, False), (1.0 + 3e-8, False),
    (1.0 + 1e-9, True), (1.0, True), (1.0 - 1e-9, True)])
def test_only_rows_dominant_beyond_the_margin_skip_dpotrf(monkeypatch, factor,
                                                           factored):
    # Counts dpstrf, the one factorization of _check_psd.
    rng = np.random.default_rng(5)
    off = np.tril(rng.normal(size=(9, 9)), -1)
    calls = _counting_dpstrf(monkeypatch)
    assert _psd_rank(_dominated_by(factor, off + off.T)) == 9
    assert len(calls) == factored


def test_dominance_test_gives_the_rank_of_the_factorizations(monkeypatch):
    # Matrices whose diagonal is a factor times its row's off-diagonal
    # magnitude sum, the factor straddling the margin, of either sign or
    # zero in some rows, with zero rows placed anywhere among them: the
    # rank (or rejection) is the one dpstrf gives.
    rng = np.random.default_rng(2029)
    factors = (1.0 - 1e-6, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-8,
               1.0 + 3e-8, 1.0 + 1e-6, 1.5, 4.0)
    margin = model.DOMINANCE_MARGIN
    calls = _counting_dpstrf(monkeypatch)
    skipped = 0
    outcomes = set()
    for _ in range(400):
        k = int(rng.integers(1, 51))
        off = np.tril(rng.normal(size=(k, k))
                      * (rng.random((k, k)) < rng.uniform(0.05, 1.0)), -1)
        if rng.random() < 0.3:       # Laplacian sign pattern: near singular
            off = -np.abs(off)
        off += off.T
        diag = rng.choice(factors) * np.abs(off).sum(axis=1)
        if rng.random() < 0.2:
            diag[rng.integers(k)] *= rng.choice([-1.0, 0.0])
        if not diag.any():
            diag[:] = 1.0
        s = (off + np.diag(diag)) * 10.0 ** rng.integers(-4, 5)
        pad = int(rng.integers(0, 11)) if rng.random() < 0.4 else 0
        if pad:
            live = np.sort(rng.choice(k + pad, size=k, replace=False))
            t = np.zeros((k + pad, k + pad))
            t[np.ix_(live, live)] = s
            s = t
        monkeypatch.setattr(model, "DOMINANCE_MARGIN", _NO_DOMINANCE)
        want = _psd_rank(s)
        monkeypatch.setattr(model, "DOMINANCE_MARGIN", margin)
        before = len(calls)
        assert _psd_rank(s) == want
        skipped += len(calls) == before
        outcomes.add("rejected" if want is None else
                     "full" if want == k else "deficient")
    assert 100 < skipped < 300
    assert outcomes == {"rejected", "full", "deficient"}


def test_pivoted_cholesky_agrees_with_greedy_on_random_matrices():
    # Semidefinite matrices of every rank, some padded with zero rows, and
    # indefinite ones whose negative eigenvalue lies far below the cutoff.
    rng = np.random.default_rng(2026)
    cases = []
    for _ in range(300):
        k = int(rng.integers(1, 40))
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        lam = rng.uniform(0.1, 10.0, size=k)
        lam[rng.random(k) < 0.5] = 0.0
        psd = bool(rng.random() < 0.5)
        if not psd:
            lam[rng.integers(k)] = -rng.uniform(1e-3, 1.0)
        s = q @ np.diag(lam * 10.0 ** rng.integers(-3, 4)) @ q.T
        s = np.tril(s) + np.tril(s, -1).T
        if rng.random() < 0.3:
            pad = int(rng.integers(1, 5))
            s = np.pad(s, (0, pad))
        cases.append((s, psd))
    assert sum(psd for _, psd in cases) > 100
    assert sum(not psd for _, psd in cases) > 100
    for s, psd in cases:
        assert _greedy_psd_verdict(s) is psd
        assert _psd_verdict(s) is psd


def test_check_psd_rejects_indefinite_matrix_with_tiny_diagonal():
    # Every diagonal entry lies below the cutoff 1e-10, but the eigenvalue
    # -1e-6 does not.  The greedy test stopped before its first pivot and
    # accepted; with no pivot above the cutoff, the off-diagonal 1e-6 of
    # the whole matrix rejects it.
    s = np.array([[1e-11, 1e-6], [1e-6, 1e-11]])
    assert _greedy_psd_verdict(s)
    assert not _psd_verdict(s)


ZERO_TRAILING_DIAGONAL = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                   [0.0, 1.0, 0.0]])


# Each has least eigenvalue about -1, from an off-diagonal entry of the
# block that dpstrf leaves unpivoted, whose diagonal is at most the cutoff.
@pytest.mark.parametrize("h", [
    ZERO_TRAILING_DIAGONAL,
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[4.0, 0.0, 0.0], [0.0, 1e-12, 1.0], [0.0, 1.0, 1e-12]]),
], ids=["one-pivot-then-zero-diagonal", "no-pivot",
        "one-pivot-then-tiny-diagonal"])
def test_check_psd_rejects_indefinite_trailing_block_with_tiny_diagonal(h):
    # The greedy reference reads only the trailing diagonal, and accepts.
    assert _greedy_psd_verdict(h)
    n = h.shape[0]
    with pytest.raises(ProblemError, match="H is not positive semidefinite"):
        QpProblem(H=h, M=np.zeros((1, 1)), A=np.ones((1, n)), b=[1.0],
                  c=np.zeros(n))


@pytest.mark.parametrize("times,psd", [(10.0, False), (0.5, True)])
def test_trailing_off_diagonal_limit_of_the_psd_check(times, psd):
    # One pivot of 1 leaves a zero trailing diagonal and the cutoff 1e-10,
    # written as a literal so that a mutant of the check cannot move it.
    e = times * 1e-10
    s = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, e], [0.0, e, 0.0]])
    assert _psd_verdict(s) is psd


def test_free_problem_with_indefinite_hessian_is_rejected_at_load():
    # Unbounded below along (0, 1, -1); no bound or row stops it.
    g = GeneralQp(Hhat=ZERO_TRAILING_DIAGONAL, Ahat=np.zeros((0, 3)),
                  c=np.zeros(3), lower=[-np.inf] * 3, upper=[np.inf] * 3)
    with pytest.raises(ProblemError, match="H is not positive semidefinite"):
        solve_pdqp(g)


def _h_rank_misses(problems):
    """Positions of the problems whose h_rank is not numpy's rank of H."""
    return [i for i, p in enumerate(problems)
            if p.h_rank != np.linalg.matrix_rank(p.H)]


def test_h_rank_is_the_rank_of_h_on_the_suite_draw(suite500):
    assert _h_rank_misses(suite500) == []


def test_h_rank_is_the_rank_of_h_on_the_mixed_bounds_problems():
    problems = [standardize(g).problem for g in mixed_instances(1, 120)]
    assert _h_rank_misses(problems) == []


@pytest.mark.parametrize("v", [
    np.array([0.5, -3.0, 2.0]),
    np.array([[1.0, -2.0], [-7.5, 3.0], [0.0, 4.0]]),   # max off row 0
    np.zeros(0),
    np.zeros((0, 3)),
], ids=["vector", "matrix", "empty", "empty_matrix"])
def test_inf_norm_is_the_largest_magnitude_of_every_entry(v):
    got = model.inf_norm(v)
    assert type(got) is float
    assert got == (float(np.abs(v).max()) if v.size else 0.0)


def _views_of(buffer, *views):
    return all(view.base is buffer for view in views)


def test_iterate_copies_the_callers_vectors_into_one_buffer():
    x, y, z = np.array([1.0, 2.0]), np.array([3.0]), np.array([4.0, 5.0])
    point = Iterate(x, y, z)
    x[0] = y[0] = z[0] = -9.0
    assert point.v.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert _views_of(point.v, point.x, point.y, point.z)
    assert not any(np.shares_memory(point.v, a) for a in (x, y, z))


def test_a_write_through_x_reaches_the_engines_update(p1):
    # The hand trace of a primal base step (test_primal), once from x as
    # given and once from x written in place after construction: the step
    # moves the buffer that the write reached.
    want = Iterate([0.0, 1.0], [1.0], [-1.0, 0.0])
    got = Iterate([0.0, 0.0], [1.0], [-1.0, 0.0])
    got.x[1] = 1.0
    for point in (want, got):
        part = Partition(basic=[1], nonbasic=[0])
        part.free_index(0)
        primal_base(p1, Shifts.zero(2), part, point, 0, basis=KktBasis(p1))
    assert got.v.tobytes() == want.v.tobytes()
    assert_allclose(got.x, [0.5, 0.5])
    assert_allclose(got.y, [0.5])


def test_assigning_a_vector_writes_it_into_the_buffer():
    # The point changes only through its views: rebinding x, y, z or v
    # (or binding a new attribute) raises and writes nothing, writes
    # through the views (it.x[...] = w, it.x += w) land in the buffer, and
    # the views stay the buffer's.
    point = Iterate([1.0, 2.0], [3.0], [4.0, 5.0])
    x, buffer = point.x, point.v
    for name, value in (("x", [7.0, 8.0]), ("y", np.ones(1)),
                        ("z", point.z.copy()), ("v", np.zeros(5)),
                        ("w", None)):
        with pytest.raises(AttributeError,
                           match=f"^cannot set Iterate.{name}: an Iterate "
                                 f"changes only through its views$"):
            setattr(point, name, value)
    assert point.v.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    point.x[...] = [7, 8]
    point.x += 1.0
    point.z[:] = np.array([-1.0, -2.0])
    point.y -= 3.0
    assert point.v.tolist() == [8.0, 9.0, 0.0, -1.0, -2.0]
    point.v *= 2.0
    assert point.z.tolist() == [-2.0, -4.0]
    assert point.x is x and point.v is buffer
    assert _views_of(buffer, point.x, point.y, point.z)


def test_an_iterate_copy_shares_no_memory():
    point = Iterate([1.0, 2.0], [3.0], [4.0, 5.0])
    twin = point.copy()
    assert not np.shares_memory(twin.v, point.v)
    assert _views_of(twin.v, twin.x, twin.y, twin.z)
    assert twin.v.tolist() == point.v.tolist()


def test_a_direction_copies_its_vectors_and_is_frozen():
    dx, dy, dz = np.array([1.0, 0.0]), np.array([2.0]), np.array([0.5, 3.0])
    d = Direction(dx, dy, dz, freed=0, basic=(1,))
    dx[0] = -9.0
    assert d.v.tolist() == [1.0, 0.0, 2.0, 0.5, 3.0]
    assert _views_of(d.v, d.dx, d.dy, d.dz)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.dx = np.zeros(2)
    # The freed components are entries of the buffer, not copies of them.
    assert (d.dx_l, d.dz_l) == (1.0, 0.5)
    assert type(d.dx_l) is float and type(d.dz_l) is float
    d.v[[0, 3]] = (-4.0, 7.0)
    assert (d.dx_l, d.dz_l) == (-4.0, 7.0)
    for name in ("dx_l", "dz_l"):
        with pytest.raises(AttributeError):
            setattr(d, name, 0.0)


def test_trace_records_keep_the_directions_they_were_given():
    # Each step's direction owns its buffer: at the end of a traced solve
    # every record's direction holds what it held when it was emitted.
    # From a start that leaves a free index nonbasic, many steps run
    # against their solved direction, negated in place (a fixed component
    # of -1).
    emitted = []

    def record(rec):
        d = rec.direction
        emitted.append((rec, d.v.copy(), (d.dx_l, d.dz_l, d.freed)))

    for k in range(3):
        g = criterion7_instance(60, 6, 6, 4000 + k, 4)[0]
        for strategy in ("primal-first", "dual-first"):
            solve_pdqp(g, SolveConfig(strategy=strategy, trace=record))
    for _, p, basis in free_start_cases(7, 10):
        for strategy in STRATEGIES[:3]:
            try:
                solve_standard(p, SolveConfig(strategy=strategy, trace=record,
                                              initial_basis=basis))
            except ProblemError:    # a one-stage strategy off its start
                pass
    assert len(emitted) > 100
    assert sum(-1.0 in fields[:2] for _, _, fields in emitted) > 10
    assert len({id(rec.direction.v) for rec, _, _ in emitted}) == len(emitted)
    for rec, v, fields in emitted:
        d = rec.direction
        assert d.v.tobytes() == v.tobytes()
        assert (d.dx_l, d.dz_l, d.freed) == fields
        assert _views_of(d.v, d.dx, d.dy, d.dz)
