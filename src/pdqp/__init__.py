"""Primal and dual active-set methods for convex quadratic programming,
combined through bound shifts that make any second-order consistent basis
optimal for a shifted problem pair."""

from .model import (Direction, InvariantError, Iterate, OptimalityReport,
                    Partition, ProblemError, QpProblem, Shifts,
                    StartConditionError, check_optimality)
from .kkt import KktInternalError
from .steps import SolveOutcome, TraceRecord
from .primal import solve_primal
from .dual import solve_dual
from .driver import (GeneralQp, PdqpSolution, SolveConfig, StandardSolution,
                     solve_pdqp, solve_standard, standardize)
from .oracle import OracleBudgetError, OracleSolution, enumerate_solve
from ._blas import one_blas_thread

__all__ = [
    "Direction", "GeneralQp", "InvariantError", "Iterate",
    "KktInternalError", "OptimalityReport", "OracleBudgetError",
    "OracleSolution", "Partition", "PdqpSolution", "ProblemError",
    "QpProblem", "Shifts", "SolveConfig", "SolveOutcome",
    "StandardSolution", "StartConditionError", "TraceRecord",
    "check_optimality", "enumerate_solve", "one_blas_thread", "solve_dual",
    "solve_pdqp", "solve_primal", "solve_standard", "standardize",
]

__version__ = "0.1.0"
