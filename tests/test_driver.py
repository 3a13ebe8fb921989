import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pdqp import (GeneralQp, InvariantError, Partition, ProblemError,
                  QpProblem, Shifts, SolveConfig, StartConditionError,
                  check_optimality, enumerate_solve, solve_dual, solve_pdqp,
                  solve_primal, solve_standard, standardize)
from pdqp import driver, kkt, model, steps
from pdqp.driver import STRATEGIES, init_shifts
from pdqp.model import START_EQ_TOL, objectives, residuals
from pdqp.kkt import KktBasis, factor_kb, find_soc_basis
from pdqp.cli import parse_problem
from pdqp.oracle import dual_set_nonempty, primal_set_nonempty

from conftest import (criterion7_instance, free_start_cases,
                      large_x_instance, mixed_instances, random_instances)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def general_p1():
    return GeneralQp(Hhat=np.eye(2), Ahat=np.array([[1.0, 1.0]]),
                     c=np.zeros(2),
                     lower=np.array([0.0, 0.0, 1.0]),
                     upper=np.array([np.inf, np.inf, 1.0]))


# Standardized, temp_bound_fixture has columns 0-2 and fixed slacks 3, 4.
# Discovery makes the free column 1 basic; this start basis leaves it
# nonbasic, for the temporary-bound machinery.
TEMP_BOUND_BASIS = [0, 2]


def temp_bound_fixture():
    """A free variable with a dependent column, handled through the
    temporary-bound machinery with a nonzero dual when it starts outside
    the basis (``TEMP_BOUND_BASIS``)."""
    return GeneralQp(Hhat=np.diag([4.0, 0.0, 0.0]),
                     Ahat=np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 2.0]]),
                     c=np.array([-4.0, 1.0, 4.0]),
                     lower=np.array([0.0, -np.inf, 0.0, 3.0, 2.0]),
                     upper=np.array([np.inf, np.inf, np.inf, 3.0, 2.0]))


def test_standardize_equality_row_structure():
    std = standardize(general_p1())
    p = std.problem
    assert p.n == 3 and p.m == 1
    assert_allclose(p.A, [[1.0, 1.0, -1.0]])
    assert sorted(p.fixed) == [2]
    assert not p.free
    # the fixed slack is anchored at its bound, so the row carries it
    assert_allclose(p.b, [1.0])


def test_standardize_dimension_arithmetic():
    g = GeneralQp(Hhat=np.eye(2), Ahat=np.array([[1.0, -1.0]]),
                  c=np.zeros(2),
                  lower=np.array([0.0, 0.0, -np.inf]),
                  upper=np.array([np.inf, np.inf, 2.0]))
    std = standardize(g)
    assert std.problem.n == 3 and std.problem.m == 1
    # the slack is anchored at its upper bound with a flipped column
    assert std.sign[2] == -1.0
    assert_allclose(std.problem.A, [[1.0, -1.0, 1.0]])


def test_standardize_boxed_component_adds_row():
    g = GeneralQp(Hhat=np.eye(1), Ahat=np.array([[1.0]]), c=np.zeros(1),
                  lower=np.array([0.0, 0.0]), upper=np.array([2.0, np.inf]))
    std = standardize(g)
    assert std.problem.n == 3 and std.problem.m == 2
    assert_allclose(std.problem.A[1], [1.0, 0.0, 1.0])
    assert_allclose(std.problem.b[1], 2.0)


def test_standardize_rejects_inconsistent_bounds():
    with pytest.raises(ProblemError, match="inconsistent bounds"):
        GeneralQp(Hhat=np.eye(1), Ahat=np.array([[1.0]]), c=np.zeros(1),
                  lower=np.array([1.0, 0.0]), upper=np.array([0.0, 0.0]))


@pytest.mark.parametrize("lower,upper,j", [
    ([-np.inf, 0.0], [-np.inf, np.inf], 0),
    ([0.0, np.inf], [np.inf, np.inf], 1),
    ([0.0, -np.inf, 0.0], [1.0, np.inf, -np.inf], 2),    # a row's bound
])
def test_wrong_side_infinite_bound_is_rejected(lower, upper, j):
    n = 2
    a = np.ones((len(lower) - n, n))
    with pytest.raises(ProblemError,
                       match=f"wrong side at component {j}: "):
        GeneralQp(Hhat=np.eye(n), Ahat=a, c=np.ones(n), lower=lower,
                  upper=upper)


@pytest.mark.parametrize("change,message", [
    ({"Hhat": np.eye(3)}, "Hhat must be 2x2, got (3, 3)"),
    ({"Ahat": np.ones((1, 3))}, "Ahat must be 1x2, got (1, 3)"),
    ({"lower": np.zeros(2)}, "bounds must have length 3"),
    ({"upper": np.array([np.inf, np.nan, 1.0])}, "bounds may not be NaN"),
], ids=["Hhat", "Ahat", "bounds_length", "nan_bound"])
def test_general_qp_rejects_misshapen_data(change, message):
    data = dict(Hhat=np.eye(2), Ahat=np.array([[1.0, 1.0]]), c=np.zeros(2),
                lower=np.array([0.0, 0.0, 1.0]),
                upper=np.array([np.inf, np.inf, 1.0]))
    with pytest.raises(ProblemError, match=f"^{re.escape(message)}$"):
        GeneralQp(**{**data, **change})


@pytest.mark.parametrize("change,m,ahat", [
    ({"Ahat": [1.0, 1.0]}, 1, [[1.0, 1.0]]),
    ({"Ahat": [], "lower": [0.0, 0.0], "upper": [np.inf, np.inf]}, 0,
     np.zeros((0, 2))),
], ids=["Ahat-vector-is-one-row", "Ahat-empty-has-no-rows"])
def test_general_qp_accepts_matrices_under_the_one_reading(change, m, ahat):
    data = dict(Hhat=np.eye(2), Ahat=np.array([[1.0, 1.0]]), c=np.zeros(2),
                lower=np.array([0.0, 0.0, 1.0]),
                upper=np.array([np.inf, np.inf, 1.0]))
    g = GeneralQp(**{**data, **change})
    assert g.m == m
    assert_array_equal(g.Ahat, ahat, strict=True)


@pytest.mark.parametrize("name,bad", [
    ("Ahat", np.inf), ("Ahat", np.nan), ("Hhat", np.inf), ("c", np.nan)])
@pytest.mark.parametrize("row", ["equality", "inequality", "boxed"])
def test_general_qp_rejects_non_finite_data_before_any_arithmetic(name, bad,
                                                                  row):
    # A non-finite Ahat row used to be dropped as redundant by standardize
    # (inf > 1e-12 * inf is false), and the solve then reported optimal.
    data = dict(Hhat=np.eye(2), Ahat=np.array([[1.0, 1.0]]),
                c=np.array([0.0, 1.0]), lower=np.array([0.0, 0.0, 1.0]),
                upper=np.array([np.inf, np.inf, 1.0]))
    data["lower"][2] = {"equality": 1.0, "inequality": -np.inf,
                        "boxed": 0.0}[row]
    data[name] = data[name].copy()
    data[name].flat[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProblemError,
                           match=f"^{name} has non-finite entries$"):
            solve_pdqp(GeneralQp(**data))


def test_general_qp_rejects_a_matrix_c():
    message = "c must be a vector, got shape (2, 1)"
    with pytest.raises(ProblemError, match=f"^{re.escape(message)}$"):
        GeneralQp(Hhat=np.eye(2), Ahat=np.array([[1.0, 1.0]]),
                  c=np.array([[0.0], [1.0]]), lower=np.array([0.0, 0.0, 1.0]),
                  upper=np.array([np.inf, np.inf, 1.0]))


def test_init_shifts_p2_fixture(p2):
    part = Partition(basic=[0], nonbasic=[1])
    shifts, it = init_shifts(p2, part, factor_kb(p2, part.basic))
    assert_allclose(it.x, [1.0, 0.0])
    assert_allclose(it.y, [3.0])
    assert_allclose(it.z, [0.0, -3.0])
    assert_allclose(shifts.q, [0.0, 0.0])
    assert_allclose(shifts.r, [0.0, 3.0])
    assert check_optimality(p2, shifts, it).optimal
    assert enumerate_solve(p2, shifts).status == "optimal"


def test_init_shifts_zero_when_already_optimal(p1):
    part = Partition(basic=[0, 1], nonbasic=[])
    shifts, it = init_shifts(p1, part, factor_kb(p1, part.basic))
    assert_allclose(shifts.q, 0.0)
    assert_allclose(shifts.r, 0.0)
    assert_allclose(it.x, [0.5, 0.5])


@pytest.mark.parametrize("b", [-1e300, 1e300])
def test_init_shifts_rejects_a_boundary_point_that_overflows(b):
    # x = b / 1e-300 overflows to inf, so the start shifts are not finite.
    p = QpProblem(H=[[0.0]], M=[[0.0]], A=[[1e-300]], b=[b], c=[0.0])
    with pytest.raises(ProblemError,
                       match="^shift entries must be finite$") as raised:
        solve_standard(p)
    assert raised.traceback[-1].name == "init_shifts"


def test_initial_point_failing_the_optimality_check_raises(p2, monkeypatch):
    def perturbed(*args):
        shifts, it = init_shifts(*args)
        it.x[0] += 1.0
        return shifts, it

    monkeypatch.setattr(driver, "init_shifts", perturbed)
    with pytest.raises(InvariantError, match="^initial shifted point failed "
                                             "the optimality check"):
        solve_standard(p2)


@pytest.mark.parametrize("strategy", ["primal-first", "dual-first"])
@pytest.mark.parametrize("factor", [10.0, 0.5])
def test_first_stage_entry_check_judges_the_initial_residuals(
        p2, monkeypatch, strategy, factor):
    # The initial point's y moves by ``factor`` times the entry check's
    # limit START_EQ_TOL * data_scale: p2's stationarity residual
    # Hx + c - A'y - z (A = [1 1]) then has that size and its equality
    # residual (M = 0) stays zero.  Ten times the limit still passes the
    # initial optimality check, whose limit is eps_fea * data_scale, and
    # the first stage's entry check, which takes that check's residual
    # norms, must reject it; half the limit passes both.
    residual = factor * START_EQ_TOL * p2.data_scale()
    assert residual < SolveConfig().fea_tol * p2.data_scale()

    def perturbed(*args):
        shifts, it = init_shifts(*args)
        it.y += residual
        return shifts, it

    monkeypatch.setattr(driver, "init_shifts", perturbed)
    config = SolveConfig(strategy=strategy)
    if factor > 1.0:
        method = strategy.split("-")[0]
        with pytest.raises(StartConditionError, match=f"^{method} start: the "
                           "point violates the equality system$"):
            solve_standard(p2, config)
    else:
        assert solve_standard(p2, config).status == "optimal"


def test_residuals_are_evaluated_once_per_point_check(suite500, monkeypatch):
    # Each check_optimality call and each stage's entry check but the
    # first evaluates the residuals once; the first stage's entry check
    # takes the initial optimality check's norms, at the same point.  Over
    # suite500 under the defaults that is 711 + 233 evaluations (1444 when
    # the first stage computed its own).
    calls = []

    def counted(p, it):
        calls.append(None)
        return residuals(p, it)

    for module in (model, steps):
        monkeypatch.setattr(module, "residuals", counted)
    for p in suite500:
        solve_standard(p)
    assert len(calls) == 944


def test_final_point_failing_the_optimality_check_raises(p2, monkeypatch):
    def perturbed(*args, **kw):
        out = solve_dual(*args, **kw)
        out.iterate.x[0] += 1.0
        return out

    monkeypatch.setattr(driver, "solve_dual", perturbed)
    with pytest.raises(InvariantError,
                       match="^final point failed the optimality check"):
        solve_standard(p2, SolveConfig(strategy="primal-first"))


def test_init_shifts_optimal_on_random_instances():
    for p in random_instances(3, 30):
        part = find_soc_basis(p, KktBasis(p))
        shifts, it = init_shifts(p, part, factor_kb(p, part.basic))
        assert check_optimality(p, shifts, it).optimal
        assert np.all(shifts.q >= 0)


def _loop_shifts(p, part, it):
    """init_shifts' shifts, one index at a time, as Python's max gives
    them (signed zeros included)."""
    q0, r0 = np.zeros(p.n), np.zeros(p.n)
    for i in part.basic:
        if i not in p.free:
            q0[i] = max(-float(it.x[i]), 0.0)
    for j in part.nonbasic:
        if j in p.free:
            r0[j] = -float(it.z[j])
        elif j not in p.fixed:
            r0[j] = max(-float(it.z[j]), 0.0)
    return q0, r0


def test_init_shifts_match_the_loop_bit_for_bit():
    cases = [(p, find_soc_basis(p, KktBasis(p)))
             for p in random_instances(3, 30)]
    cases += [(p, Partition.from_basic(p.n, basis))
              for _, p, basis in free_start_cases(7, 10)]
    negative_zeros = 0
    for p, part in cases:
        shifts, it = init_shifts(p, part, factor_kb(p, part.basic))
        q0, r0 = _loop_shifts(p, part, it)
        assert shifts.q.tobytes() == q0.tobytes()
        assert shifts.r.tobytes() == r0.tobytes()
        negative_zeros += int(np.sum(np.signbit(q0) & (q0 == 0.0))
                              + np.sum(np.signbit(r0) & (r0 == 0.0)))
    assert negative_zeros


def test_solve_standard_p2_primal_first_from_injected_basis(p2):
    sol = solve_standard(p2, SolveConfig(initial_basis=[0],
                                         check_invariants=True))
    assert sol.status == "optimal"
    assert sol.strategy == "primal-first"
    assert_allclose(sol.iterate.x, [0.0, 1.0], atol=1e-12)
    assert sol.objective == pytest.approx(0.5)


def test_solve_standard_p1_trivial(p1):
    sol = solve_standard(p1)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.25)
    assert sol.iterations == 0 or sol.iterations <= 2


def test_row_rank_is_tested_over_the_non_fixed_columns():
    # A fixed column of 1e12 sets the pivoted-QR scale of [A M] over all
    # columns, under which the second row falls below the rank cutoff; over
    # the columns a basis can use the rows are independent.
    p = QpProblem(H=np.eye(3), M=np.zeros((2, 2)),
                  A=np.array([[1.0, 0.0, 1e12], [0.0, 1.0, 0.0]]),
                  b=np.array([1.0, 2.0]), c=np.zeros(3),
                  fixed=frozenset({2}))
    sol = solve_standard(p, SolveConfig(check_invariants=True))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.5)
    with pytest.raises(ProblemError, match="^\\[A M\\] is rank deficient: "
                                           "rank 1 < 2 rows; remove"):
        QpProblem(H=np.eye(3), M=np.zeros((2, 2)),
                  A=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
                  b=np.array([1.0, 2.0]), c=np.zeros(3),
                  fixed=frozenset({0}))


def _recording_factor_kb(monkeypatch):
    """Record the variable order of every basis-matrix factorization."""
    calls = []
    factor_kb = kkt.factor_kb

    def counted(p, order):
        calls.append(tuple(np.asarray(order).tolist()))
        return factor_kb(p, order)

    monkeypatch.setattr(kkt, "factor_kb", counted)
    return calls


@pytest.mark.parametrize("initial_basis", [None, [0, 1]])
def test_solve_standard_factors_the_initial_basis_once(p1, monkeypatch,
                                                       initial_basis):
    # p1 starts optimal, so no stage factors K_B: the one factorization is
    # basis discovery's accepted full matrix or the check of the given
    # initial basis, and init_shifts reuses it.
    calls = _recording_factor_kb(monkeypatch)
    sol = solve_standard(p1, SolveConfig(initial_basis=initial_basis))
    assert sol.status == "optimal" and sol.iterations == 0
    assert calls == [(0, 1)]


def test_full_matrix_start_basis_is_factored_once(monkeypatch):
    # Where the non-fixed columns exceed rank(H) by at most m, discovery
    # factors the full matrix over them first.  Where the acceptance rule
    # takes it, the basis holds it, so the start K_B that init_shifts
    # receives is that factorization, and the first stage does not factor
    # it again.
    problems = [p for p in random_instances(20260810, 100)
                if np.sum(~p.fixed_mask) - p.h_rank <= p.m
                and factor_kb(p, np.flatnonzero(~p.fixed_mask)) is not None]
    calls = _recording_factor_kb(monkeypatch)
    at_shifts = []
    init = driver.init_shifts

    def recorded(p, part, factor):
        at_shifts.append(list(calls))
        return init(p, part, factor)

    monkeypatch.setattr(driver, "init_shifts", recorded)
    for p in problems:
        calls.clear()
        at_shifts.clear()
        solve_standard(p)
        start = tuple(np.flatnonzero(~p.fixed_mask).tolist())
        assert at_shifts == [[start]]
        assert calls[1:2] != [start]
    assert len(problems) > 20


@pytest.mark.parametrize("strategy", ["auto", "primal-first", "dual-first",
                                      "primal-only", "dual-only"])
def test_problem_without_variables_solves(strategy):
    # With n = 0 no index is eligible for repair; the index selection once
    # took the argmax of an empty array and raised a bare ValueError.
    empty = QpProblem(H=np.zeros((0, 0)), M=np.zeros((0, 0)),
                      A=np.zeros((0, 0)), b=np.zeros(0), c=np.zeros(0))
    sol = solve_standard(empty, SolveConfig(strategy=strategy))
    assert sol.status == "optimal" and sol.objective == 0.0
    # One row with M = [1] and b = 1: y = 1 at objective 0.5 y'My.
    one_row = QpProblem(H=np.zeros((0, 0)), M=np.eye(1), A=np.zeros((1, 0)),
                        b=np.ones(1), c=np.zeros(0))
    sol = solve_standard(one_row, SolveConfig(strategy=strategy))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.5)
    assert_allclose(sol.iterate.y, [1.0])


def test_singular_initial_basis_is_a_problem_error(p1, p_unbounded):
    # K_B = [[0]] for B = {} of p1; H_BB = 0 with one row for B = {0, 1}
    # of p_unbounded.
    for p, basis in ((p1, []), (p_unbounded, [0, 1])):
        with pytest.raises(ProblemError, match="K_B is singular"):
            solve_standard(p, SolveConfig(initial_basis=basis))


def test_unknown_strategy_is_rejected_before_any_solve_work(p1,
                                                            monkeypatch):
    def discovery(*args, **kwargs):
        raise AssertionError("basis discovery ran")

    monkeypatch.setattr(driver, "find_soc_basis", discovery)
    # A singular initial basis (see above) must not turn it into a
    # ProblemError either.
    for basis in (None, []):
        with pytest.raises(ValueError, match="^unknown strategy 'bogus'$"):
            solve_standard(p1, SolveConfig(strategy="bogus",
                                           initial_basis=basis))


@pytest.mark.parametrize("basis", [[2], [-1, 0]])
def test_out_of_range_initial_basis_is_a_problem_error(p1, basis):
    # Once an IndexError from assembling K_B, or an InvariantError from a
    # start point built over a negative index.
    with pytest.raises(ProblemError, match=f"^initial basis index "
                                           f"{basis[0]} is not in 0..1$"):
        solve_standard(p1, SolveConfig(initial_basis=basis))


def test_solve_standard_infeasible(p_infeasible):
    sol = solve_standard(p_infeasible)
    assert sol.status == "primal_infeasible"


def test_solve_standard_unbounded(p_unbounded):
    sol = solve_standard(p_unbounded)
    assert sol.status == "dual_infeasible"


def test_strategy_auto_selects_dual_first_when_dual_feasible(p1):
    sol = solve_standard(p1, SolveConfig(strategy="auto"))
    assert sol.strategy == "dual-first"


def test_strategy_auto_selects_primal_first_on_dual_violation(p2):
    sol = solve_standard(p2, SolveConfig(initial_basis=[0]))
    assert sol.strategy == "primal-first"


def test_stage_gap_identity(p2):
    sol = solve_standard(p2, SolveConfig(initial_basis=[0]))
    for lg in sol.stage_log:
        assert lg.status == "optimal"
        assert abs(lg.f_primal - lg.f_dual + lg.q_dot_r) \
            <= 1e-9 * (1 + abs(lg.f_primal))


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def test_stage_logs_and_objective_have_the_bits_of_their_functions(
        monkeypatch):
    # _stage_log logs ``objectives`` at each stage's end point, and a last
    # stage at zero shifts lends its f_primal to the solution's objective.
    # Each value must have the bits of the formula it stands for, under
    # every strategy; where the run stops after a first stage
    # at nonzero shifts, the objective is not that stage's f_primal.
    stage_log = driver._stage_log
    stages = 0

    def checked(p, s, out):
        nonlocal stages
        log = stage_log(p, s, out)
        f_primal, f_dual = objectives(p, s, out.iterate)
        assert _bits(log.f_primal) == _bits(f_primal)
        assert _bits(log.f_dual) == _bits(f_dual)
        assert _bits(log.q_dot_r) == _bits(s.q @ s.r)
        stages += 1
        return log

    monkeypatch.setattr(driver, "_stage_log", checked)
    cases = [(p, SolveConfig(strategy=strategy))
             for p in random_instances(20260810, 200)
             for strategy in STRATEGIES]
    cases += [(p, SolveConfig(strategy=strategy, initial_basis=basis))
              for _, p, basis in free_start_cases(7, 20)
              for strategy in STRATEGIES[:3]]
    stopped_shifted = 0
    for p, config in cases:
        try:
            sol = solve_standard(p, config)
        except ProblemError:        # a one-stage strategy off its start
            continue
        assert not sol.shifts_initial.q.flags.writeable
        assert not sol.shifts_initial.r.flags.writeable
        assert _bits(sol.objective) == _bits(
            objectives(p, Shifts.zero(p.n), sol.iterate)[0])
        stopped_shifted += (len(sol.stage_log) == 1
                            and "only" not in sol.strategy
                            and _bits(sol.objective)
                            != _bits(sol.stage_log[0].f_primal))
    assert stages > 1500 and stopped_shifted > 4


def test_solve_pdqp_general_roundtrip():
    sol = solve_pdqp(general_p1())
    assert sol.status == "optimal"
    assert_allclose(sol.x, [0.5, 0.5], atol=1e-10)
    assert sol.objective == pytest.approx(0.25)
    assert_allclose(sol.y, [0.5], atol=1e-10)


def test_solve_pdqp_boxed_variable():
    g = GeneralQp(Hhat=np.array([[2.0]]), Ahat=np.array([[1.0]]),
                  c=np.array([-2.0]),
                  lower=np.array([0.0, 0.0]), upper=np.array([0.4, 10.0]))
    sol = solve_pdqp(g, SolveConfig(check_invariants=True))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.4)
    assert sol.objective == pytest.approx(0.16 - 0.8)


def test_solve_pdqp_flipped_upper_bound():
    g = GeneralQp(Hhat=np.array([[1.0]]), Ahat=np.array([[1.0]]),
                  c=np.array([1.0]),
                  lower=np.array([-np.inf, -np.inf]),
                  upper=np.array([-1.0, np.inf]))
    sol = solve_pdqp(g)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(-1.0)
    assert sol.objective == pytest.approx(-0.5)


def test_solve_pdqp_free_variable_in_basis():
    g = GeneralQp(Hhat=np.eye(2), Ahat=np.array([[1.0, 1.0]]),
                  c=np.array([0.0, -1.0]),
                  lower=np.array([0.0, -np.inf, 1.0]),
                  upper=np.array([np.inf, np.inf, 1.0]))
    sol = solve_pdqp(g, SolveConfig(check_invariants=True))
    assert sol.status == "optimal"
    assert_allclose(sol.x, [0.0, 1.0], atol=1e-10)
    # Discovery makes the free column basic: no temporary bound.
    p = standardize(g).problem
    assert p.free <= set(find_soc_basis(p, KktBasis(p)).basic)


def test_temporary_bound_fixture_nonzero_dual():
    g = temp_bound_fixture()
    std = standardize(g)
    p = std.problem
    assert 1 in find_soc_basis(p, KktBasis(p)).basic
    sol = solve_pdqp(g, SolveConfig(check_invariants=True,
                                    initial_basis=TEMP_BOUND_BASIS))
    # The free column 1 starts nonbasic, a temporary bound whose dual
    # z_1 = -r_1 = -1 is nonzero.
    assert sorted(p.free - set(TEMP_BOUND_BASIS)) == [1]
    assert sol.standardized.shifts_initial.r[1] == pytest.approx(1.0)
    assert sol.status == "optimal"
    assert_allclose(sol.x, [1.0, 2.0, 0.0], atol=1e-9)
    assert abs(sol.standardized.iterate.z[1]) < 1e-9
    # oracle agreement on the standardized problem
    o = enumerate_solve(std.problem, Shifts.zero(std.problem.n))
    assert o.status == "optimal"
    assert sol.standardized.objective == pytest.approx(o.objective, abs=1e-9)


def test_temporary_bound_fixture_dual_first_zero_step_rule():
    g = temp_bound_fixture()
    sol = solve_pdqp(g, SolveConfig(strategy="dual-first",
                                    check_invariants=True,
                                    initial_basis=TEMP_BOUND_BASIS))
    assert sol.status == "optimal"
    assert_allclose(sol.x, [1.0, 2.0, 0.0], atol=1e-9)


def test_temporary_bound_decoupled_free_variable():
    g = GeneralQp(Hhat=np.diag([1.0, 0.0]), Ahat=np.array([[1.0, 0.0]]),
                  c=np.array([-1.0, 0.0]),
                  lower=np.array([0.0, -np.inf, 0.0]),
                  upper=np.array([np.inf, np.inf, 10.0]))
    sol = solve_pdqp(g, SolveConfig(check_invariants=True))
    assert sol.status == "optimal"
    # Discovery leaves the free column 1 nonbasic: a temporary bound.
    p = standardize(g).problem
    part = find_soc_basis(p, KktBasis(p))
    assert sorted(p.free & set(part.nonbasic)) == [1]
    assert sol.x[0] == pytest.approx(1.0)


def _agrees_with_oracle(o, sol):
    """Status as the oracle's ``o`` (either infeasibility status when both
    feasible sets are empty) and, when optimal, its objective."""
    if o.primal_feasible or o.dual_feasible:
        if sol.status != o.status:
            return False
    elif sol.status not in ("primal_infeasible", "dual_infeasible"):
        return False
    return o.status != "optimal" or \
        abs(sol.objective - o.objective) <= 1e-6 * (1 + abs(o.objective))


INF = np.inf


@pytest.mark.parametrize("g,basis", [
    # A dual stage makes the free column 4 basic with z_4 != 0; a primal
    # base step along a null ray then looked like a certificate.
    (GeneralQp(Hhat=[[1, -1, 0, 1], [-1, 1, 0, -1], [0, 0, 0, 0],
                     [1, -1, 0, 1]],
               Ahat=[[2, 1, -1, 1], [-2, 0, 2, 0]], c=[1, 0, 0, 3],
               lower=[1, -INF, 2, 0, -INF, 2],
               upper=[2, -1, INF, 0, INF, INF]),
     [0, 1, 6]),
    # Once raised KktInternalError: K_l unexpectedly singular.
    (GeneralQp(Hhat=[[0, 0], [0, 0]], Ahat=[[1, 1], [-1, -2]], c=[3, 3],
               lower=[-INF, 1, 1, -INF], upper=[INF, INF, 4, INF]),
     [0, 2, 4]),
], ids=["false_dual_infeasible", "kl_singular"])
def test_free_basic_index_off_its_dual_bound_is_repaired_first(g, basis):
    p = standardize(g).problem
    sol = solve_standard(p, SolveConfig(strategy="dual-first",
                                        initial_basis=basis,
                                        check_invariants=True))
    assert sol.status == "optimal"
    assert _agrees_with_oracle(enumerate_solve(p, Shifts.zero(p.n)), sol)


def test_klsingular_from_a_free_nonbasic_start():
    # The corpus file's free column 0 left nonbasic: its temporary bound
    # blocks the first dual step instead of being swapped into the basis.
    p = standardize(parse_problem(PROBLEMS / "klsingular.qpt")).problem
    sol = solve_standard(p, SolveConfig(strategy="dual-first",
                                        initial_basis=[0]))
    assert sol.status == "dual_infeasible"
    assert enumerate_solve(p, Shifts.zero(p.n)).status == "dual_infeasible"


def test_free_start_bases_agree_with_oracle():
    # Every bound kind, and start bases that leave a free column
    # nonbasic, so that each strategy's first stage has a live temporary
    # bound.
    # The one-stage strategies either solve or refuse the start by their
    # precondition (ProblemError), never by a StartConditionError: the
    # dual's entry check on temporary bounds and dual-only's precondition
    # share one measure.
    cases = free_start_cases(5, 100)
    assert len(cases) > 300
    wrong = []
    oracle = {}
    solved = dict.fromkeys(("primal-only", "dual-only"), 0)
    for label, p, basis in cases:
        if id(p) not in oracle:
            oracle[id(p)] = enumerate_solve(p, Shifts.zero(p.n))
        for strategy in ("auto", "primal-first", "dual-first",
                         "primal-only", "dual-only"):
            try:
                sol = solve_standard(p, SolveConfig(strategy=strategy,
                                                    initial_basis=basis,
                                                    check_invariants=True))
            except ProblemError:
                if strategy not in solved:
                    raise
                continue
            if not _agrees_with_oracle(oracle[id(p)], sol):
                wrong.append((label, strategy))
            if strategy in solved:
                solved[strategy] += 1
    assert wrong == []
    assert min(solved.values()) > 0


@pytest.mark.parametrize("strategy", ["auto", "primal-first", "dual-first"])
def test_large_x_optima_pass_the_final_check(strategy):
    # max|x| near 1e10: selection once stopped a dual stage at a basic x
    # 1e-11 * max|x| below its bound, which the final check's absolute
    # fea_tol rejects (InvariantError, or StartConditionError in the
    # primal stage after it).
    for seed in (11, 37, 64, 167, 200, 249, 270):
        g, f = large_x_instance(seed, 3, 1e6)
        sol = solve_pdqp(g, SolveConfig(strategy=strategy,
                                        check_invariants=True))
        assert sol.status == "optimal"
        assert abs(sol.objective - f) <= 1e-6 * abs(f)


@pytest.mark.parametrize("tol", ["opt_tol", "fea_tol"])
def test_nan_tolerance_is_a_value_error(p1, tol):
    # A NaN tolerance is not positive: a plain ValueError, not the failed
    # initial optimality check it once read as (InvariantError).
    with pytest.raises(ValueError, match="tolerances must be positive"):
        solve_standard(p1, SolveConfig(**{tol: float("nan")}))


@pytest.mark.parametrize("bad", [{"opt_tol": -1.0}, {"fea_tol": 0.0},
                                 {"opt_tol": float("inf")}])
def test_bad_tolerance_is_rejected_before_any_solve_work(p1, bad):
    # Checked with the strategy: a singular initial basis does not turn
    # it into a ProblemError.
    for basis in (None, []):
        with pytest.raises(ValueError,
                           match="^tolerances must be positive and finite$"):
            solve_standard(p1, SolveConfig(initial_basis=basis, **bad))


def test_auto_measures_the_dual_shifts_against_opt_tol():
    # Basis [1] needs r_0 = 1e-7: within fea_tol = 1e-6 but not within the
    # dual bounds' opt_tol = 1e-9, so the start is not dual feasible.
    p = QpProblem(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                  b=np.array([1.0]), c=np.array([1.0 - 1e-7, 0.0]))
    sol = solve_standard(p, SolveConfig(initial_basis=[1]))
    assert sol.strategy == "dual-first"
    sol = solve_standard(p, SolveConfig(initial_basis=[1], opt_tol=1e-9,
                                        fea_tol=1e-6))
    assert sol.strategy == "primal-first"
    assert sol.status == "optimal"


def test_pipeline_matches_oracle_with_mu_regularizer():
    for p in random_instances(57, 15, kinds=("feasible",)):
        sol = solve_standard(p)
        o = enumerate_solve(p, Shifts.zero(p.n))
        assert sol.status == o.status
        if o.status == "optimal":
            assert abs(sol.objective - o.objective) \
                <= 1e-7 * (1 + abs(o.objective))


def test_final_point_passes_unshifted_check(p2):
    sol = solve_standard(p2, SolveConfig(initial_basis=[0]))
    assert check_optimality(p2, Shifts.zero(2), sol.iterate).optimal


def test_solve_standard_without_rows():
    p = QpProblem(H=np.eye(2), M=np.zeros((0, 0)), A=np.zeros((0, 2)),
                  b=np.zeros(0), c=np.array([-1.0, 1.0]))
    sol = solve_standard(p, SolveConfig(check_invariants=True))
    assert sol.status == "optimal"
    assert_allclose(sol.iterate.x, [1.0, 0.0], atol=1e-12)
    o = enumerate_solve(p, Shifts.zero(2))
    assert o.objective == pytest.approx(sol.objective)


def test_primal_only_requires_primal_feasible_init(p2):
    with pytest.raises(ProblemError, match="primal-only"):
        solve_standard(p2, SolveConfig(strategy="primal-only"))


def test_dual_only_solves_dual_feasible_instance(p1):
    sol = solve_standard(p1, SolveConfig(strategy="dual-only"))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.25)


def test_dual_only_measures_dual_shifts_by_the_z_bound():
    # Basis {1} gives y = 1001 and r_0 = 1e-4: above the absolute opt_tol
    # of 1e-6, but within opt_tol * max|y|, the z measure of auto's choice
    # and check_optimality, so the dual start is feasible.
    p = QpProblem(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                  b=np.ones(1), c=np.array([1001.0 - 1e-4, 1000.0]))
    sol = solve_standard(p, SolveConfig(strategy="dual-only",
                                        initial_basis=[1]))
    assert sol.shifts_initial.r[0] == pytest.approx(1e-4)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1000.5)


# Suite instances whose solves take zero-length steps: 18, 99 and 369 end
# optimal, 115 dual infeasible and 318 primal infeasible (4 zero steps).
ZERO_STEP_SUITE = (18, 99, 115, 318, 369)


def test_bland_mode_still_converges(monkeypatch, suite500):
    # Force the least-index selection rule from the first zero step.
    default, default_paths = {}, {}
    for i in ZERO_STEP_SUITE:
        records = []
        default[i] = solve_standard(suite500[i],
                                    SolveConfig(trace=records.append))
        default_paths[i] = [(r.kind, r.direction.freed, r.step.blocking)
                            for r in records]
    monkeypatch.setattr(steps, "BLAND_AFTER", 1)
    p = QpProblem(H=np.eye(3), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0, 1.0]]), b=np.array([0.0]),
                  c=np.array([-1.0, 1.0, 0.0]))
    sol = solve_standard(p, SolveConfig(check_invariants=True))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)
    moved = 0
    for i in ZERO_STEP_SUITE:
        records = []
        sol = solve_standard(suite500[i], SolveConfig(trace=records.append,
                                                      check_invariants=True))
        # A zero-length step puts the solve in Bland mode.
        assert any(r.step.alpha == 0.0 for r in records), i
        assert sol.status == default[i].status, i
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(default[i].objective,
                                                  rel=1e-9), i
        moved += [(r.kind, r.direction.freed, r.step.blocking)
                  for r in records] != default_paths[i]
    assert moved > 0                  # the least-index rule chose otherwise


def test_degenerate_lowrank_instance_s12002_solves():
    # H of rank 12 at n=150: its dual stage is degenerate, and a tie
    # broken by roundoff once led to a basis with singular K_B
    # ("K_B unexpectedly singular").
    g, _, fstar = criterion7_instance(150, 15, 15, 12002, rank=12)
    sol = solve_pdqp(g, SolveConfig(max_iterations=500))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(fstar, rel=1e-9)


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("strategy", ["auto", "primal-only", "dual-first"])
def test_large_guarded_value_does_not_widen_ratio_ties(strategy, check):
    # Basis {0, 1, 2} is primal feasible at x = (0, 0.5, 1e6).  Entering
    # x3 lowers x0 at rate 1e-3 and x1 at rate 1, so the degenerate x0
    # must block with a zero step; a tie band grown with max|x| = 1e6 let
    # x1 block at step 0.5 and left x0 at -5e-4.
    A = np.array([[1.0, 0.0, 0.0, 1e-3], [0.0, 1.0, 0.0, 1.0],
                  [0.0, 0.0, 1.0, 0.0]])
    p = QpProblem(H=np.zeros((4, 4)), M=np.zeros((3, 3)), A=A,
                  b=np.array([0.0, 0.5, 1e6]),
                  c=np.array([0.0, 0.0, 0.0, -1.0]))
    sol = solve_standard(p, SolveConfig(initial_basis=[0, 1, 2],
                                        strategy=strategy,
                                        check_invariants=check))
    assert sol.status == "optimal"
    assert check_optimality(p, Shifts.zero(4), sol.iterate).optimal
    assert_allclose(sol.iterate.x, [0.0, 0.5, 1e6, 0.0], atol=1e-9)


def test_doubly_infeasible_problem_gets_either_certificate():
    # x1 + x2 = -1 has no solution x >= 0, and the dual needs
    # z3 = c3 = -1 >= 0.  With both feasible sets empty either
    # infeasibility status is correct; a solve reports the one its first
    # unbounded stage certifies, and the certificate is checked directly.
    p = QpProblem(H=np.zeros((3, 3)), M=np.zeros((1, 1)),
                  A=np.array([[1.0, 1.0, 0.0]]), b=np.array([-1.0]),
                  c=np.array([0.0, 0.0, -1.0]))
    zero = Shifts.zero(3)
    assert not primal_set_nonempty(p, zero)
    assert not dual_set_nonempty(p, zero)
    oracle = enumerate_solve(p, zero)
    assert oracle.status == "primal_infeasible"
    assert not (oracle.primal_feasible or oracle.dual_feasible)
    for strategy, want in (("auto", "dual_infeasible"),
                           ("primal-first", "dual_infeasible"),
                           ("dual-first", "primal_infeasible")):
        records = []
        sol = solve_standard(p, SolveConfig(strategy=strategy,
                                            trace=records.append,
                                            check_invariants=True))
        assert sol.status == want, strategy
        last = records[-1]
        assert last.kind == "base" and np.isinf(last.step.alpha), strategy
        d = last.direction
        if want == "dual_infeasible":
            # A primal ray: x + t dx stays feasible and f falls without end.
            assert np.all(d.dx >= 0.0) and p.c @ d.dx < 0.0
            assert_allclose(p.H @ d.dx, 0.0, atol=1e-12)
            assert_allclose(p.A @ d.dx, 0.0, atol=1e-12)
        else:
            # A Farkas ray: A'dy = -dz <= 0 with b'dy > 0.
            assert np.all(d.dz >= 0.0) and p.b @ d.dy > 0.0
            assert_allclose(p.A.T @ d.dy + d.dz, 0.0, atol=1e-12)


def test_forced_strategies_agree_with_oracle():
    # Both stage orders must reach the oracle verdict; this seed once
    # produced a spurious singular basis when noise-level dual deltas
    # were treated as blocking in a dual-first run.
    for p in random_instances(31337, 45):
        o = enumerate_solve(p, Shifts.zero(p.n))
        for strategy in ("primal-first", "dual-first"):
            sol = solve_standard(p, SolveConfig(strategy=strategy,
                                                check_invariants=True))
            assert sol.status == o.status
            if o.status == "optimal":
                assert abs(sol.objective - o.objective) \
                    <= 1e-7 * (1 + abs(o.objective))


def test_pipeline_handles_extreme_data_scales():
    # The freed-component dichotomy must not misfire when the data scale
    # dwarfs legitimately small direction components.
    rng = np.random.default_rng(0)
    for scale in (1e-6, 1e6, 1e9):
        g = rng.normal(size=(4, 4))
        H = scale * (g.T @ g + 0.1 * np.eye(4))
        A = scale * rng.normal(size=(2, 4))
        x0 = np.abs(rng.normal(size=4))
        p = QpProblem(H=H, M=np.zeros((2, 2)), A=A, b=A @ x0,
                      c=scale * rng.normal(size=4))
        sol = solve_standard(p)
        o = enumerate_solve(p, Shifts.zero(4))
        assert sol.status == o.status == "optimal"
        assert abs(sol.objective - o.objective) \
            <= 1e-7 * (1 + abs(o.objective))
    # Rank-deficient H makes freed components vanish legitimately next to
    # genuine ones that sit inside the noise band's absolute floor: of
    # size 1/scale when all data is at 1e12, of size 1e-12 when the
    # objective is.  A zero verdict taken from the band alone turned the
    # former into false infeasibility certificates.
    rng = np.random.default_rng(0)
    for obj_scale, row_scale in ((1e12, 1e12), (1e-12, 1e-8)):
        for rank in (0, 1, 2, 3):
            g = rng.normal(size=(rank, 5))
            A = row_scale * rng.normal(size=(2, 5))
            x0 = np.abs(rng.normal(size=5))
            p = QpProblem(H=obj_scale * (g.T @ g), M=np.zeros((2, 2)), A=A,
                          b=A @ x0, c=obj_scale * rng.normal(size=5))
            o = enumerate_solve(p, Shifts.zero(5))
            for strategy in ("auto", "primal-first"):
                sol = solve_standard(p, SolveConfig(strategy=strategy))
                assert sol.status == o.status
                if o.status == "optimal":
                    assert abs(sol.objective - o.objective) \
                        <= 1e-7 * (1 + abs(o.objective))


def test_dead_row_consistent_is_dropped():
    # Second row touches only the fixed variable x2 = 1 and is satisfied
    # by it: redundant, dropped, zero multiplier on the way back.
    g = GeneralQp(Hhat=np.eye(2), Ahat=np.array([[1.0, 1.0], [0.0, 2.0]]),
                  c=np.array([-2.0, 0.0]),
                  lower=np.array([0.0, 1.0, 0.0, 2.0]),
                  upper=np.array([np.inf, 1.0, np.inf, 2.0]))
    std = standardize(g)
    assert std.dead_rows == [1]
    assert std.problem.m == 1
    sol = solve_pdqp(g, SolveConfig(check_invariants=True))
    assert sol.status == "optimal"
    assert sol.x[1] == pytest.approx(1.0)
    assert sol.y[1] == 0.0
    o = enumerate_solve(std.problem, Shifts.zero(std.problem.n))
    assert abs(sol.standardized.objective - o.objective) <= 1e-9


@pytest.mark.parametrize("factor", [10.0, 0.5])
def test_dead_row_slack_separates_consistent_from_inconsistent(factor):
    # The second row, 2 x2 = v over the fixed x2 = 1, pins nothing; its
    # fixed value v = 2 + d misses it by d.  The slack is 1e-9 (1 + 2 * 1
    # + |v| + |d|), 5e-9 up to a relative 1e-8; a miss of ``factor``
    # times that is inconsistent past it and a dropped dead row within.
    v = 2.0 + factor * 5e-9
    std = standardize(GeneralQp(Hhat=np.eye(2),
                                Ahat=np.array([[1.0, 1.0], [0.0, 2.0]]),
                                c=np.zeros(2),
                                lower=np.array([0.0, 1.0, 0.0, v]),
                                upper=np.array([np.inf, 1.0, np.inf, v])))
    if factor > 1.0:
        assert std.inconsistent_row == 1 and std.problem is None
    else:
        assert std.inconsistent_row is None and std.dead_rows == [1]


def _dead_row_inconsistent():
    # Same structure but the fixed value violates the second row.
    return GeneralQp(Hhat=np.eye(2),
                     Ahat=np.array([[1.0, 1.0], [0.0, 2.0]]), c=np.zeros(2),
                     lower=np.array([0.0, 1.0, 0.0, 5.0]),
                     upper=np.array([np.inf, 1.0, np.inf, 5.0]))


def test_dead_row_inconsistent_is_primal_infeasible():
    g = _dead_row_inconsistent()
    std = standardize(g)
    assert std.inconsistent_row == 1
    assert std.problem is None
    sol = solve_pdqp(g)
    assert sol.status == "primal_infeasible"
    assert sol.strategy == "presolve"


@pytest.mark.parametrize("bad,message", [
    pytest.param({"strategy": "bogus"}, "unknown strategy 'bogus'",
                 id="strategy"),
    pytest.param({"opt_tol": float("nan")},
                 "tolerances must be positive and finite", id="nan-opt-tol"),
    pytest.param({"max_iterations": -1},
                 "max_iterations must be an integer >= 0, got -1",
                 id="negative-max-iterations"),
    pytest.param({"trace": 123}, "trace must be callable, got 123",
                 id="int-trace"),
])
def test_presolved_problem_still_checks_its_config(bad, message):
    # standardize settles the problem as inconsistent, so no stage runs;
    # the config is checked all the same, as solve_standard checks it.
    with pytest.raises(ValueError) as caught:
        solve_pdqp(_dead_row_inconsistent(), SolveConfig(**bad))
    assert str(caught.value) == message


def _pinned_rank_deficiency(second_bound: float) -> GeneralQp:
    # Two equality rows sharing a single live column, x0, once x1 = 1 is
    # fixed: x0 + 1 = 3 and x0 + 2 = second_bound.
    return GeneralQp(Hhat=np.eye(2),
                     Ahat=np.array([[1.0, 1.0], [1.0, 2.0]]),
                     c=np.zeros(2),
                     lower=np.array([0.0, 1.0, 3.0, second_bound]),
                     upper=np.array([np.inf, 1.0, 3.0, second_bound]))


def test_pinned_rank_deficiency_is_presolved():
    # The second row repeats the first over the live column: dropped when
    # its bound agrees (x = (2, 1)), a proof of infeasibility when it is
    # off by 1.
    g = _pinned_rank_deficiency(4.0)
    std = standardize(g)
    assert std.dead_rows == [1] and std.inconsistent_row is None
    sol = solve_pdqp(g, SolveConfig(check_invariants=True))
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [2.0, 1.0], rtol=0.0, atol=1e-12)
    assert sol.y[1] == 0.0
    twin = _pinned_rank_deficiency(5.0)
    assert standardize(twin).inconsistent_row == 1
    sol = solve_pdqp(twin)
    assert sol.status == "primal_infeasible"
    assert sol.strategy == "presolve"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_consistent_dependent_rows_over_live_columns_are_presolved(strategy):
    # mixed098 of the mixed-bounds draw at seed 7 fixes variables 1, 3 and
    # 4, and its four equality rows then span only the three live columns
    # 0, 2 and 5.  The rows are consistent, so the presolve drops the one
    # that the rank rule leaves out and the problem solves, to the value
    # that the oracle finds on the standardized problem.
    g = mixed_instances(7, 99)[98]
    assert g.name == "mixed098"
    std = standardize(g)
    o = enumerate_solve(std.problem, Shifts.zero(std.problem.n))
    sol = solve_pdqp(g, SolveConfig(strategy=strategy,
                                    check_invariants=True))
    assert sol.status == o.status == "optimal"
    assert sol.objective == pytest.approx(-11.0, rel=1e-12)
    assert abs(sol.standardized.objective - o.objective) \
        <= 1e-9 * (1 + abs(o.objective))


def test_initial_basis_rejects_fixed_variables():
    g = general_p1()
    std = standardize(g)
    with pytest.raises(ProblemError, match="fixed"):
        solve_standard(std.problem, SolveConfig(initial_basis=[0, 2]))


def test_engine_rejects_a_basic_fixed_index():
    p = standardize(general_p1()).problem
    part = Partition(basic=[0, 2], nonbasic=[1])
    shifts, it = init_shifts(p, part, factor_kb(p, part.basic))
    for solve in (solve_primal, solve_dual):
        with pytest.raises(StartConditionError, match="fixed index"):
            solve(p, shifts, (it, part))
