"""Inputs at the public entry points that the exception contract rejects.

Each case names in its id what happened to it before the vector,
matrix, index-list and tolerance rules were shared, array input was
required to hold real numbers, and the engine's entry checks failed on
NaN: it was accepted, loaded as numbers, truncated to an integer, crashed
with a plain ``IndexError``, ``TypeError`` or ``ValueError`` inside
numpy, or solved.
"""

from fractions import Fraction

import numpy as np
import pytest

from pdqp import (GeneralQp, InvariantError, Iterate, Partition,
                  ProblemError, QpProblem, Shifts, SolveConfig,
                  StartConditionError, check_optimality, enumerate_solve,
                  solve_dual, solve_pdqp, solve_primal, solve_standard)

INF = np.inf
NAN = np.nan
TOLERANCES = "tolerances must be positive and finite"
NOT_REAL = "{} is not an array of real numbers"


def _p1():
    return QpProblem(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                     b=np.array([1.0]), c=np.zeros(2))


def _general(**change):
    data = dict(Hhat=np.eye(2), Ahat=[[1.0, 1.0]], c=[0.0, 1.0],
                lower=[0.0, 0.0, 1.0], upper=[INF, INF, 1.0])
    return lambda: GeneralQp(**(data | change))


def _qp(**change):
    data = dict(H=[[1.0]], M=[[0.0]], A=[[1.0]], b=[1.0], c=[1.0])
    return lambda: QpProblem(**(data | change))


def _solve_p1(**config):
    return lambda: solve_standard(_p1(), SolveConfig(**config))


def _point(n_x=2, m=1):
    return Iterate(np.zeros(n_x), np.zeros(m), np.zeros(n_x))


def _primal_from(it):
    return lambda: solve_primal(_p1(), Shifts.zero(2),
                                (it, Partition([0], [1])))


def _from_basis_01(solve, x, y, z, **tols):
    """``solve`` on p1 from (x, y, z) with both variables basic."""
    return lambda: solve(_p1(), Shifts.zero(2),
                         (Iterate(x, y, z), Partition([0, 1], [])), **tols)


NAN_STARTS = {"x": ([NAN, 0.5], [0.0], [0.0, 0.0]),
              "y": ([0.5, 0.5], [NAN], [0.0, 0.0]),
              "z": ([0.5, 0.5], [0.0], [NAN, 0.0])}
OPTIMUM = ([0.5, 0.5], [0.5], [0.0, 0.0])

# The entry points that take check_invariants, by label: each calls one
# with the given setting, through SolveConfig or as solve_primal's keyword.
FLAG_ENTRIES = {
    "config": lambda flag: solve_standard(
        _p1(), SolveConfig(check_invariants=flag)),
    "pdqp": lambda flag: solve_pdqp(_general()(),
                                    SolveConfig(check_invariants=flag)),
    "primal": lambda flag: _from_basis_01(solve_primal, *OPTIMUM,
                                          check_invariants=flag)(),
}
# Settings of check_invariants that are not a bool, each with the way it
# ran when it was taken for its truth value.
FLAGS = {"no": "string-ran-the-checks", 1: "int-ran-the-checks",
         None: "none-skipped-the-checks", 0.0: "float-skipped-the-checks"}


@pytest.mark.parametrize("build,error,message", [
    pytest.param(_general(lower=[[0.0, 0.0, 1.0]]), ProblemError,
                 "lower must be a vector, got shape (1, 3)",
                 id="general-lower-2d-was-accepted"),
    pytest.param(_general(upper=[[INF, INF, 1.0]]), ProblemError,
                 "upper must be a vector, got shape (1, 3)",
                 id="general-upper-2d-was-accepted"),
    pytest.param(lambda: Shifts(np.zeros((1, 2)), np.zeros((1, 2))),
                 ProblemError, "q must be a vector, got shape (1, 2)",
                 id="shifts-2d-was-accepted"),
    pytest.param(lambda: Partition([0.7], [1]), InvariantError,
                 "basic index 0.7 is not an integer",
                 id="partition-float-was-truncated"),
    pytest.param(lambda: Partition([True], [0]), InvariantError,
                 "basic index True is not an integer",
                 id="partition-bool-was-accepted-as-1"),
    pytest.param(lambda: Partition(["0"], [1]), InvariantError,
                 "basic index '0' is not an integer",
                 id="partition-string-was-accepted"),
    pytest.param(lambda: Partition([0], [1], freed=2.0), InvariantError,
                 "freed index 2.0 is not an integer",
                 id="partition-freed-float-raised-IndexError-on-use"),
    pytest.param(lambda: Partition.from_basic(2, [-1]), InvariantError,
                 "basic index -1 is not in 0..1",
                 id="from-basic-negative-made-index-1-basic"),
    pytest.param(lambda: Partition.from_basic(2, [5]), InvariantError,
                 "basic index 5 is not in 0..1",
                 id="from-basic-out-of-range-raised-IndexError"),
    pytest.param(lambda: Partition.from_basic(2, [0, 0]), InvariantError,
                 "a basic index is given twice: [0, 0]",
                 id="from-basic-duplicate-was-accepted"),
    pytest.param(lambda: Partition.from_basic(2, [0.0]), InvariantError,
                 "basic index 0.0 is not an integer",
                 id="from-basic-float-raised-IndexError"),
    pytest.param(lambda: Partition.from_basic(2, [True]), InvariantError,
                 "basic index True is not an integer",
                 id="from-basic-bool-raised-IndexError"),
    pytest.param(lambda: Partition([0], [1]).free_index(1.0), InvariantError,
                 "freed index 1.0 is not an integer",
                 id="free-index-float-raised-IndexError"),
    pytest.param(lambda: solve_standard(_p1(),
                                        SolveConfig(initial_basis=[0.0])),
                 ProblemError, "initial basis index 0.0 is not an integer",
                 id="initial-basis-float-raised-IndexError"),
    pytest.param(lambda: solve_standard(_p1(),
                                        SolveConfig(initial_basis=[True])),
                 ProblemError, "initial basis index True is not an integer",
                 id="initial-basis-bool-raised-IndexError"),
    pytest.param(_solve_p1(initial_basis=[0, 0]), ProblemError,
                 "an initial basis index is given twice: [0, 0]",
                 id="initial-basis-repeat-was-accepted"),
    pytest.param(_qp(A=[]), ProblemError, "A must be 1x1, got (1, 0)",
                 id="qp-empty-A-raised-numpy-reshape-ValueError"),
    pytest.param(_qp(M=[]), ProblemError, "M must be 1x1, got (1, 0)",
                 id="qp-empty-M-raised-numpy-reshape-ValueError"),
    pytest.param(_qp(H=[["a"]]), ProblemError, NOT_REAL.format("H"),
                 id="qp-string-H-raised-numpy-ValueError"),
    pytest.param(_qp(H=[[1.0, 0.0], [0.0]], A=[[1.0, 1.0]], c=[1.0, 1.0]),
                 ProblemError, NOT_REAL.format("H"),
                 id="qp-ragged-H-raised-numpy-ValueError"),
    pytest.param(_qp(b=["x"]), ProblemError, NOT_REAL.format("b"),
                 id="qp-string-b-raised-numpy-ValueError"),
    pytest.param(_general(Ahat=[["q", 1.0]]), ProblemError,
                 NOT_REAL.format("Ahat"),
                 id="general-string-Ahat-raised-numpy-ValueError"),
    pytest.param(_general(lower=["a", 0.0, 1.0]), ProblemError,
                 NOT_REAL.format("lower"),
                 id="general-string-lower-raised-numpy-ValueError"),
    pytest.param(lambda: Shifts(["a"], [0.0]), ProblemError,
                 NOT_REAL.format("q"),
                 id="shifts-string-raised-numpy-ValueError"),
    pytest.param(_qp(H=[["2"]]), ProblemError, NOT_REAL.format("H"),
                 id="qp-numeric-string-H-loaded-as-2"),
    pytest.param(_qp(M=[[False]]), ProblemError, NOT_REAL.format("M"),
                 id="qp-bool-M-loaded-as-0"),
    pytest.param(_qp(A=[[True]]), ProblemError, NOT_REAL.format("A"),
                 id="qp-bool-A-loaded-as-1"),
    pytest.param(_qp(b=["1.5"]), ProblemError, NOT_REAL.format("b"),
                 id="qp-numeric-string-b-loaded-as-1.5"),
    pytest.param(_qp(c=[b"3"]), ProblemError, NOT_REAL.format("c"),
                 id="qp-bytes-c-loaded-as-3"),
    pytest.param(_qp(c=[Fraction(1, 2)]), ProblemError, NOT_REAL.format("c"),
                 id="qp-object-c-loaded-as-0.5"),
    pytest.param(_qp(b=None), ProblemError, NOT_REAL.format("b"),
                 id="qp-none-b-was-called-non-finite"),
    pytest.param(_general(Ahat=[[True, True]]), ProblemError,
                 NOT_REAL.format("Ahat"), id="general-bool-Ahat-loaded-as-1"),
    pytest.param(_general(lower=["0", "0", "1"]), ProblemError,
                 NOT_REAL.format("lower"),
                 id="general-numeric-string-lower-loaded-as-numbers"),
    pytest.param(lambda: Iterate([True, False], [0.0], [0.0, 0.0]),
                 ProblemError, NOT_REAL.format("x"),
                 id="iterate-bool-x-loaded-as-numbers"),
    pytest.param(lambda: Shifts(["0", "0"], [0.0, 0.0]), ProblemError,
                 NOT_REAL.format("q"),
                 id="shifts-numeric-string-q-loaded-as-numbers"),
    pytest.param(_solve_p1(opt_tol="1e-6"), ValueError, TOLERANCES,
                 id="config-string-opt-tol-raised-TypeError"),
    pytest.param(_solve_p1(fea_tol=None), ValueError, TOLERANCES,
                 id="config-none-fea-tol-raised-TypeError"),
    pytest.param(_solve_p1(opt_tol=np.array([1e-6, 1e-6])), ValueError,
                 TOLERANCES,
                 id="config-array-opt-tol-raised-numpy-ValueError"),
    pytest.param(_solve_p1(opt_tol=True), ValueError, TOLERANCES,
                 id="config-bool-opt-tol-ran-as-1"),
    pytest.param(lambda: enumerate_solve(_p1(), Shifts.zero(3)),
                 ProblemError, "q and r must have length 2 to match the "
                 "problem, got shape (3,)",
                 id="oracle-shifts-length-raised-ValueError"),
    pytest.param(lambda: check_optimality(_p1(), Shifts.zero(3), _point()),
                 ProblemError, "q and r must have length 2 to match the "
                 "problem, got shape (3,)",
                 id="check-shifts-length-raised-ValueError"),
    pytest.param(_primal_from(_point(n_x=3)), ProblemError,
                 "x must have length 2 to match the problem, got shape (3,)",
                 id="primal-x-length-raised-ValueError"),
    pytest.param(_primal_from(_point(m=2)), ProblemError,
                 "y must have length 1 to match the problem, got shape (2,)",
                 id="primal-y-length-raised-ValueError"),
    *[pytest.param(_from_basis_01(solve, *NAN_STARTS[v]),
                   StartConditionError,
                   f"{method} start: the point violates the equality system",
                   id=f"{method}-nan-{v}-returned-optimal")
      for method, solve in (("primal", solve_primal), ("dual", solve_dual))
      for v in NAN_STARTS],
    pytest.param(_from_basis_01(solve_primal, *OPTIMUM, fea_tol=NAN),
                 ValueError, TOLERANCES,
                 id="primal-nan-fea-tol-returned-optimal"),
    pytest.param(_from_basis_01(solve_dual, *OPTIMUM, opt_tol=INF),
                 ValueError, TOLERANCES,
                 id="dual-inf-opt-tol-returned-optimal"),
    pytest.param(_from_basis_01(solve_dual, *OPTIMUM, fea_tol=-1.0),
                 ValueError, TOLERANCES,
                 id="dual-negative-fea-tol-returned-optimal"),
    pytest.param(lambda: check_optimality(_p1(), Shifts.zero(2),
                                          Iterate([5.0, -7.0], [0.0],
                                                  [0.0, 0.0]), INF, INF),
                 ValueError, TOLERANCES,
                 id="check-inf-tolerances-called-a-wrong-point-optimal"),
    pytest.param(lambda: Iterate([[0.5, 0.5]], [0.5], [0.0, 0.0]),
                 ProblemError, "x must be a vector, got shape (1, 2)",
                 id="iterate-x-2d-was-kept-until-check-sizes"),
    pytest.param(lambda: Iterate([0.5, 0.5], [[0.5]], [0.0, 0.0]),
                 ProblemError, "y must be a vector, got shape (1, 1)",
                 id="iterate-y-2d-was-flattened-and-solved-optimal"),
    pytest.param(lambda: Iterate([0.5, 0.5], [0.5], [[0.0], [0.0]]),
                 ProblemError, "z must be a vector, got shape (2, 1)",
                 id="iterate-z-2d-was-kept-until-check-sizes"),
    pytest.param(lambda: solve_standard(_p1(),
                                        SolveConfig(max_iterations=-5)),
                 ValueError, "max_iterations must be an integer >= 0, got -5",
                 id="config-negative-max-iterations-ran-the-default-cap"),
    pytest.param(lambda: solve_standard(_p1(),
                                        SolveConfig(max_iterations=True)),
                 ValueError,
                 "max_iterations must be an integer >= 0, got True",
                 id="config-bool-max-iterations-capped-at-1"),
    pytest.param(lambda: solve_standard(_p1(),
                                        SolveConfig(max_iterations=2.5)),
                 ValueError, "max_iterations must be an integer >= 0, got 2.5",
                 id="config-float-max-iterations-was-accepted"),
    pytest.param(lambda: solve_standard(_p1(), SolveConfig(trace=123)),
                 ValueError, "trace must be callable, got 123",
                 id="config-int-trace-raised-TypeError-mid-solve"),
    pytest.param(_from_basis_01(solve_primal, *OPTIMUM, max_iterations=-5),
                 ValueError, "max_iterations must be an integer >= 0, got -5",
                 id="primal-negative-max-iterations-ran-the-default-cap"),
    pytest.param(_from_basis_01(solve_dual, *OPTIMUM, max_iterations=True),
                 ValueError,
                 "max_iterations must be an integer >= 0, got True",
                 id="dual-bool-max-iterations-capped-at-1"),
    pytest.param(_from_basis_01(solve_dual, *OPTIMUM, max_iterations=1.0),
                 ValueError, "max_iterations must be an integer >= 0, got 1.0",
                 id="dual-float-max-iterations-was-accepted"),
    pytest.param(_from_basis_01(solve_primal, *OPTIMUM, trace=123),
                 ValueError, "trace must be callable, got 123",
                 id="primal-int-trace-was-accepted"),
    pytest.param(_from_basis_01(solve_dual, *OPTIMUM, trace=123),
                 ValueError, "trace must be callable, got 123",
                 id="dual-int-trace-was-accepted"),
    *[pytest.param(lambda entry=entry, flag=flag: FLAG_ENTRIES[entry](flag),
                   ValueError,
                   f"check_invariants must be a bool, got {flag!r}",
                   id=f"{entry}-{FLAGS[flag]}")
      for entry in FLAG_ENTRIES for flag in FLAGS],
])
def test_public_entry_points_reject_malformed_inputs(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("cap", [0, 3, np.int64(3)],
                         ids=["default", "int", "numpy-int"])
def test_an_integer_max_iterations_is_accepted(cap):
    assert solve_standard(_p1(), SolveConfig(max_iterations=cap)).status \
        == "optimal"


@pytest.mark.parametrize("flag", [False, True, np.bool_(True)],
                         ids=["false", "true", "numpy-bool"])
@pytest.mark.parametrize("entry", list(FLAG_ENTRIES))
def test_a_bool_check_invariants_is_accepted(entry, flag):
    assert FLAG_ENTRIES[entry](flag).status == "optimal"
