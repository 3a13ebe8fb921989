import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pdqp import (InvariantError, Iterate, Partition, QpProblem, Shifts,
                  StartConditionError, solve_dual, solve_primal)
from pdqp.driver import init_shifts
from pdqp.dual import DUAL
from pdqp.kkt import (KktBasis, factor_kb, find_soc_basis,
                      solve_boundary_point)
from pdqp.primal import PRIMAL, primal_base
from pdqp.model import BOUND_SLACK
from pdqp.steps import (Family, StepResult, _check_bounds, _on_bound,
                        ratio_test, run_active_set, select_index)

TOL = 1e-6


def test_ratio_test_breaks_near_ties_by_pivot_size():
    # Ratios 0 and 5e-18 differ by roundoff only: the larger pivot wins,
    # whichever of the two carries the roundoff.
    assert ratio_test([0.0, 1e-17], [-1.0, -2.0], [3, 7], TOL,
                      2.0) == (5e-18, 7)
    assert ratio_test([1e-17, 0.0], [-2.0, -1.0], [3, 7], TOL,
                      2.0) == (5e-18, 3)
    # Equal pivots: the first index.
    assert ratio_test([0.0, 0.0], [-1.0, -1.0], [3, 7], TOL, 1.0) == (0.0, 3)


def test_ratio_test_takes_the_exact_ratio_of_a_clear_minimum():
    assert ratio_test([1.0, 0.5], [-1.0, -10.0], [0, 1], TOL,
                      10.0) == (0.05, 1)
    assert ratio_test([0.5, 1.0], [-10.0, -1e-3], [0, 1], TOL,
                      10.0) == (0.05, 0)


def test_ratio_test_candidates():
    # Infeasible values count as zero; nonnegative and noise-level deltas
    # do not block.
    assert ratio_test([-1e-8, 1.0], [-1.0, -1.0], [0, 1], TOL, 1.0) == (0.0, 0)
    assert ratio_test([1.0, 2.0], [0.0, 1.0], [0, 1], TOL,
                      1.0) == (np.inf, None)
    assert ratio_test([1.0], [-1e-13], [0], TOL, 1e-13) == (np.inf, None)
    assert ratio_test([], [], [], TOL, 0.0) == (np.inf, None)


def test_ratio_test_tie_band_is_capped_by_the_tolerance():
    # One guarded value of 1e6 must not widen the tie band past the
    # tolerance: the degenerate entry blocks with a zero step, not the
    # larger pivot at ratio 0.5, which would leave entry 0 at -5e-4.
    assert ratio_test([0.0, 0.5, 1e6], [-1e-3, -1.0, 0.0], [0, 1, 2],
                      TOL, 1.0) == (0.0, 0)


def test_ratio_test_does_not_push_a_negative_value_further():
    # Below -delta only a zero step is allowed, so overshoots of earlier
    # steps do not add up.
    assert ratio_test([-5e-8, 1e-9], [-1e-3, -1.0], [0, 1], TOL,
                      1.0) == (0.0, 0)


@pytest.mark.parametrize("seed", range(20))
def test_ratio_test_overshoot_is_at_most_delta(seed):
    rng = np.random.default_rng(seed)
    n = 30
    values = np.abs(rng.normal(size=n)) * rng.integers(0, 2, size=n)
    values[rng.random(n) < 0.3] *= 1e-10
    neg = rng.random(n) < 0.2
    values[neg] = -10.0 ** rng.uniform(-12, -6, size=int(neg.sum()))
    values *= 10.0 ** (seed % 8)
    deltas = rng.normal(size=n)
    alpha, k = ratio_test(values, deltas, np.arange(n), TOL,
                          float(np.abs(deltas).max()))
    vmax = max(1.0, float(np.max(np.abs(values))))
    delta = min(1e-9 * vmax, 0.1 * TOL)
    assert deltas[k] < 0 and alpha == max(values[k], 0.0) / -deltas[k]
    # Each entry ends at or above min(v_i, -delta), up to the roundoff of
    # v_i + alpha * d_i itself.
    assert np.all(values + alpha * deltas
                  >= np.minimum(values, -delta) - 1e-15 * vmax)


@pytest.mark.parametrize("bland", [False, True])
def test_select_index_without_an_eligible_index(bland):
    none = np.zeros(0, dtype=bool)
    assert select_index(np.zeros(0), none, none, none, TOL, bland) \
        == (None, 0.0)
    one_sided = np.array([True, False])     # index 1 is fixed
    assert select_index(np.array([-TOL / 2, 5.0]), one_sided,
                        np.zeros(2, dtype=bool), one_sided, TOL,
                        bland) == (None, 0.0)


def test_step_function_requires_l_freed(p2):
    # z_0 + r_0 = -1 < 0 suits orient = 1; only the freed check objects.
    it = Iterate(np.zeros(2), np.zeros(1), np.array([-1.0, 0.0]))
    with pytest.raises(StartConditionError,
                       match="^index l must be freed before primal_base$"):
        primal_base(p2, Shifts.zero(2), Partition([1], [0]), it, 0,
                    basis=KktBasis(p2))


def test_start_partition_with_a_pending_freed_index_is_rejected(p1):
    start = (Iterate([0.5, 0.5], [0.0], [0.0, 0.0]),
             Partition(basic=[1], nonbasic=[], freed=0))
    with pytest.raises(StartConditionError,
                       match="^start partition has a pending freed index$"):
        solve_primal(p1, Shifts.zero(2), start)


def test_a_public_run_leaves_the_callers_start_untouched(suite500):
    # solve_primal and solve_dual copy their start: the caller's vectors
    # and partition mask keep their bytes, and the outcome holds its own
    # objects.  Runs: the first stage of each two-stage strategy from the
    # discovered basis of the first 20 suite500 problems, on which both
    # methods take steps.
    moved = set()
    for p in suite500[:20]:
        part = find_soc_basis(p, KktBasis(p))
        shifts, it = init_shifts(p, part, factor_kb(p, part.basic))
        zero = np.zeros(p.n)
        for solve, s in ((solve_primal, Shifts(shifts.q, zero)),
                         (solve_dual, Shifts(zero, shifts.r))):
            start = (it.x, it.y, it.z, part.basic_mask)
            before = [v.tobytes() for v in start]
            out = solve(p, s, (it, part))
            assert [v.tobytes() for v in start] == before
            assert out.iterate is not it and out.partition is not part
            assert not any(np.shares_memory(a, b) for a, b in zip(
                (out.iterate.x, out.iterate.y, out.iterate.z,
                 out.partition.basic_mask), start))
            if out.iterations:
                moved.add(out.method)
    assert moved == {"primal", "dual"}


def test_intermediate_loop_that_does_not_move_is_stopped(p2):
    # From p2's shifted start at basis {0}, the primal stage (r = 0)
    # frees l = 1 with z_1 + r_1 = -3; steps that never move it must trip
    # the guard, not loop for ever.
    part = Partition(basic=[0], nonbasic=[1])
    shifts, it = init_shifts(p2, part, factor_kb(p2, part.basic))
    calls = []

    def still(p, s, part, it, l, basis, orient, tol):
        calls.append(l)
        assert len(calls) < 100, "the stuck guard did not trip"
        return StepResult(0.0, 3.0, 0.0, None, False), None

    with pytest.raises(InvariantError, match="^intermediate subiterations "
                                             "did not terminate"):
        run_active_set(PRIMAL, p2, Shifts(shifts.q, np.zeros(2)), (it, part),
                       still, still, fea_tol=TOL, opt_tol=TOL)


@pytest.mark.parametrize("start,limit,error", [
    (True, 1e-8, StartConditionError),      # START_EQ_TOL
    (False, 1e-7, InvariantError),          # DRIFT_EQ_TOL
], ids=["start", "drift"])
@pytest.mark.parametrize("factor", [10.0, 0.5])
def test_equality_residual_limit_of_the_entry_and_invariant_checks(
        p2, start, limit, error, factor):
    # p2's optimum x = (0, 1), y = 1, z = (1, 0) over basis {1}, with z_0
    # moved so that the stationarity residual is ``factor`` times the
    # check's limit, limit * data_scale with data_scale = 1 + 2 + 1.  The
    # limits are literals, so that a changed constant fails here.
    assert p2.data_scale() == 4.0
    residual = factor * limit * 4.0
    it = Iterate([0.0, 1.0], [1.0], [1.0 + residual, 0.0])

    def check():
        _check_bounds(PRIMAL, p2, Shifts.zero(2), it,
                      Partition(basic=[1], nonbasic=[0]), TOL, TOL,
                      start=start)

    if factor > 1.0:
        with pytest.raises(error, match="the point violates the equality "
                                        "system$"):
            check()
    else:
        check()


@pytest.mark.parametrize("shift", [
    np.zeros(4), np.array([0.0, -0.0, 0.0, -0.0]), np.zeros(0),
    np.array([0.0, 3.0, -0.5, -7.0]), np.array([0.0, np.nan, 0.0, 0.0]),
], ids=["zero", "signed-zeros", "empty", "shifted", "nan"])
def test_on_bound_limit_is_the_slack_scaled_by_the_shift(shift):
    # The scalar BOUND_SLACK stands in for the vector only where every
    # shift is zero, where each entry of the vector is that scalar; a
    # comparison against either gives the same verdicts.
    want = BOUND_SLACK * np.maximum(1.0, np.abs(shift))
    got = _on_bound(shift)
    if np.count_nonzero(shift):
        assert_array_equal(got, want)
    else:
        assert got == BOUND_SLACK and type(got) is float
        assert (want == got).all()
    values = np.linspace(-2e-7, 2e-7, 9)[:, None]
    assert_array_equal(np.broadcast_to(np.abs(values) <= got,
                                       (9, shift.size)),
                       np.abs(values) <= want)


ROLES = ("repaired", "repair_shift", "guarded", "guard_shift", "live", "idle",
         "unguarded", "pinned", "scale_by", "unbounded", "live_mask",
         "unguarded_mask", "pinned_mask", "d_guarded", "rate")


def test_each_family_derives_its_roles_from_its_name():
    # The 16 attributes the engine reads; the dual mirrors each primal one.
    assert [PRIMAL.method] + [getattr(PRIMAL, a) for a in ROLES] == [
        "primal", "z", "r", "x", "q", "basic", "nonbasic", "free", "fixed",
        "y", "dual_infeasible", "basic_mask", "free_mask", "fixed_mask",
        "dx", "dz_l"]
    assert [DUAL.method] + [getattr(DUAL, a) for a in ROLES] == [
        "dual", "x", "q", "z", "r", "nonbasic", "basic", "fixed", "free",
        "x", "primal_infeasible", "nonbasic_mask", "fixed_mask", "free_mask",
        "dz", "dx_l"]
    assert Family("primal") == PRIMAL and Family("dual") == DUAL
    with pytest.raises(KeyError):
        Family("x")


@pytest.mark.parametrize("method,clause,role", [
    ("primal", "guarded", "free"), ("primal", "relaxed", "free"),
    ("dual", "guarded", "fixed"), ("dual", "relaxed", "fixed")])
def test_a_failed_start_blames_the_regular_index_not_the_unguarded_one(
        method, clause, role):
    # H = I, m = 0, index 0 unguarded (the primal's free, the dual's
    # fixed) and index 2 regular, both live (basic in the primal,
    # nonbasic in the dual), with the clause's value -5 and -1 (guarded)
    # or 5 and 1 (relaxed) and c keeping stationarity exact.  Index 0 has
    # no bound on that value, so the message must name index 2.
    sign = -1.0 if clause == "guarded" else 1.0
    value = np.array([5.0 * sign, 0.0, sign])
    primal = method == "primal"
    on_x = primal == (clause == "guarded")      # the clause tests x + q
    x, z = (value, np.zeros(3)) if on_x else (np.zeros(3), value)
    p = QpProblem(H=np.eye(3), M=np.zeros((0, 0)), A=np.zeros((0, 3)),
                  b=np.zeros(0), c=z - x, **{role: [0]})
    part = (Partition(basic=[0, 1, 2], nonbasic=[]) if primal
            else Partition(basic=[], nonbasic=[0, 1, 2]))
    vec, shift = ("x", "q") if on_x else ("z", "r")
    error = (f"{method} start: {clause} {vec}[2] + {shift}[2] = {sign:.3e} "
             f"violates its bound")
    solve = solve_primal if primal else solve_dual
    with pytest.raises(StartConditionError, match=f"^{re.escape(error)}$"):
        solve(p, Shifts.zero(3), (Iterate(x, [], z), part))


@pytest.mark.parametrize("off,error", [
    (1e-6, "primal start: relaxed z[2] + r[2] = 1.000e-06 violates its "
           "bound"),
    (1e-8, None),
], ids=["beyond", "within"])
def test_a_relaxed_value_is_held_on_its_bound_within_the_slack(
        suite500, off, error):
    # The first suite500 problem whose discovered basis holds x_B >= 0 at
    # the boundary point of zero shifts, where z_B = -0.0: a public primal
    # run from that point with r_j = off on its first basic index j meets
    # z_j + r_j = off.  BOUND_SLACK (1e-7 at a shift of at most 1) holds
    # 1e-8 on the bound and not 1e-6.
    for p in suite500:
        part = find_soc_basis(p, KktBasis(p))
        it = solve_boundary_point(p, Shifts.zero(p.n), part,
                                  factor_kb(p, part.basic))
        if part.basic and (it.x[part.basic_mask] >= 0.0).all():
            break
    assert (p.n, part.basic[0]) == (5, 2)
    r = np.zeros(p.n)
    r[part.basic[0]] = off
    if error is None:
        out = solve_primal(p, Shifts(np.zeros(p.n), r), (it, part))
        assert out.status in ("optimal", "dual_infeasible")
    else:
        with pytest.raises(StartConditionError, match=f"^{re.escape(error)}$"):
            solve_primal(p, Shifts(np.zeros(p.n), r), (it, part))


@pytest.mark.parametrize("off,error", [
    (1e-6, "primal start: idle x[0] + q[0] = 1.000e-06 violates its bound"),
    (1e-8, None),
], ids=["beyond", "within"])
def test_an_idle_value_is_held_on_its_bound_within_the_slack(
        suite500, off, error):
    # The first suite500 problem whose discovered basis leaves an index j
    # nonbasic with x_B >= 0 at the boundary point of q_j = -off: a public
    # primal run from that point at zero shifts meets x_j + q_j = off.
    # BOUND_SLACK (1e-7 at a zero shift) holds 1e-8 on the bound and not
    # 1e-6.
    for p in suite500:
        part = find_soc_basis(p, KktBasis(p))
        if not part.nonbasic:
            continue
        q = np.zeros(p.n)
        q[part.nonbasic[0]] = -off
        it = solve_boundary_point(p, Shifts(q, np.zeros(p.n)), part,
                                  factor_kb(p, part.basic))
        if (it.x[part.basic_mask] >= 0.0).all():
            break
    assert (p.n, part.nonbasic[0]) == (5, 0)
    if error is None:
        assert solve_primal(p, Shifts.zero(p.n),
                            (it, part)).status == "dual_infeasible"
    else:
        with pytest.raises(StartConditionError, match=f"^{re.escape(error)}$"):
            solve_primal(p, Shifts.zero(p.n), (it, part))
