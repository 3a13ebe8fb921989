"""The primal active-set method: its ``Family`` descriptor for the
shared engine in ``steps`` and its two step functions.  The engine
derives the entry and invariant checks from the descriptor.

Iterates stay feasible for the shifted primal bounds on the basic set
while the negative components of z + r are driven to zero; a repaired
index ends basic with z_l + r_l = 0.  Free variables, temporary bounds
included, need z_l + r_l = 0 from either side, so they are selected
two-sided.  The entry conditions are the relaxed ones: basic duals may
start with z_B + r_B < 0 and are then selected straight from the basic
set, as a warm start from a dual solve with a smaller shift produces.
"""

from __future__ import annotations

from .model import (DEFAULT_TOL, Direction, Iterate, Partition, QpProblem,
                    Shifts)
from .steps import (Family, SolveOutcome, StepResult, run_active_set,
                    take_step)


PRIMAL = Family("primal")


def primal_base(p: QpProblem, s: Shifts, part: Partition, it: Iterate, l: int,
                *, basis, orient: float = 1.0, tol: float = DEFAULT_TOL
                ) -> tuple[StepResult, Direction]:
    """Base subiteration: fix dx_l = orient (K_B system) and step as far
    as the primal bounds allow (see ``take_step``).  An infinite step,
    returned unapplied, certifies that the dual problem is infeasible."""
    return take_step(PRIMAL, "base", p, s, part, it, l, basis, orient, tol)


def primal_intermediate(p: QpProblem, s: Shifts, part: Partition, it: Iterate,
                        l: int, *, basis, orient: float = 1.0,
                        tol: float = DEFAULT_TOL
                        ) -> tuple[StepResult, Direction]:
    """Intermediate subiteration: fix dz_l = orient (bordered K_l system),
    so the target step -(z_l + r_l)/dz_l is always finite."""
    return take_step(PRIMAL, "intermediate", p, s, part, it, l, basis,
                     orient, tol)


def solve_primal(p: QpProblem, s: Shifts, start: tuple[Iterate, Partition],
                 **kw) -> SolveOutcome:
    """Run the primal method to optimality, dual infeasibility, or the
    iteration limit; ``run_active_set`` takes the keywords."""
    return run_active_set(PRIMAL, p, s, start, primal_base,
                          primal_intermediate, **kw)
