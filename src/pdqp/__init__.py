"""Primal and dual active-set methods for convex quadratic programming,
combined through bound shifts that make any second-order consistent basis
optimal for a shifted problem pair."""

from .model import (Direction, InvariantError, Iterate, OptimalityReport,
                    Partition, ProblemError, QpProblem, Shifts,
                    StartConditionError, check_optimality, dual_objective,
                    primal_objective, residuals)
from .kkt import (KktFactorization, KktInternalError, SingularReport,
                  SocBasisResult, factor_kb, find_soc_basis,
                  recover_z_nonbasic, solve_base_primal,
                  solve_intermediate_primal)
from .steps import SolveLimits, SolveOutcome, StepResult, TraceRecord
from .primal import primal_base, primal_intermediate, solve_primal
from .dual import dual_base, dual_intermediate, solve_dual
from .driver import (GeneralQp, PdqpSolution, SolveConfig, StandardSolution,
                     TemporaryBoundRegistry, init_shifts, solve_pdqp,
                     solve_standard, standardize, temporary_bound_pass)
from .oracle import (OracleBudgetError, OracleSolution, PropertyReport,
                     check_direction_propositions, check_objective_identity,
                     enumerate_solve)

__all__ = [
    "Direction", "GeneralQp", "InvariantError", "Iterate",
    "KktFactorization", "KktInternalError", "OptimalityReport",
    "OracleBudgetError", "OracleSolution", "Partition", "PdqpSolution",
    "ProblemError", "PropertyReport", "QpProblem", "Shifts",
    "SingularReport", "SocBasisResult", "SolveConfig", "SolveLimits",
    "SolveOutcome", "StandardSolution", "StartConditionError", "StepResult",
    "TemporaryBoundRegistry", "TraceRecord", "check_direction_propositions",
    "check_objective_identity", "check_optimality", "dual_base",
    "dual_intermediate", "dual_objective", "enumerate_solve", "factor_kb",
    "find_soc_basis", "init_shifts", "primal_base", "primal_intermediate",
    "primal_objective", "recover_z_nonbasic", "residuals",
    "solve_base_primal", "solve_dual", "solve_intermediate_primal",
    "solve_pdqp", "solve_primal", "solve_standard", "standardize",
    "temporary_bound_pass",
]

__version__ = "0.1.0"
