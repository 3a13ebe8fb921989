"""The dual active-set method, the mirror image of the primal: its
``Family`` descriptor for the shared engine in ``steps`` and its two
step functions.  The engine derives the entry and invariant checks from
the descriptor.

Iterates keep the dual bounds z_N + r_N >= 0 while the negative
components of x + q are repaired; a repaired index ends nonbasic with
x_l + q_l = 0.  Basic duals, free ones included, start on their bounds.
An index l is freed from the basic set (base subiteration, dz_l fixed)
or, under the relaxed entry conditions, from the nonbasic set (straight
to intermediate subiterations, dx_l fixed); blocking dual bounds move
their index into the basic set.

Temporary bounds are the free nonbasic variables: z_j + r_j = 0 is a
dual bound of zero width (``Family.pinned``), so a direction that would
move z_j blocks with a zero step and makes j basic.  The next system,
K_B over B' + {j} with dx_l fixed (B' the basic set while l is freed), is
nonsingular even if K_big over B' + {l, j} is singular: K_l over B' + {l}
is not, so K_big has corank 1 and adj(K_big) = c ww' (c != 0, w spanning
its null space, c w_j^2 = det K_l).  The rows of K_big w = 0 over B' + {l}
give w_l = -w_j dz_j up to sign (dz_j: the base direction's rate for z_j),
so deleting row and column l leaves det = c w_j^2 dz_j^2 != 0.
"""

from __future__ import annotations

from .model import (DEFAULT_TOL, Direction, Iterate, Partition, QpProblem,
                    Shifts)
from .steps import (Family, SolveOutcome, StepResult, run_active_set,
                    take_step)


DUAL = Family("dual")


def dual_base(p: QpProblem, s: Shifts, part: Partition, it: Iterate, l: int,
              *, basis, orient: float = 1.0, tol: float = DEFAULT_TOL
              ) -> tuple[StepResult, Direction]:
    """Base subiteration: fix dz_l = orient (bordered K_l system) and
    move x_l + q_l toward zero (see ``take_step``).  An infinite step
    (dx_l = 0 with no blocking dual bound), returned unapplied, certifies
    the primal problem infeasible."""
    return take_step(DUAL, "base", p, s, part, it, l, basis, orient, tol)


def dual_intermediate(p: QpProblem, s: Shifts, part: Partition, it: Iterate,
                      l: int, *, basis, orient: float = 1.0,
                      tol: float = DEFAULT_TOL
                      ) -> tuple[StepResult, Direction]:
    """Intermediate subiteration: fix dx_l = orient (K_B system), so the
    target step -(x_l + q_l)/dx_l is always finite."""
    return take_step(DUAL, "intermediate", p, s, part, it, l, basis,
                     orient, tol)


def solve_dual(p: QpProblem, s: Shifts, start: tuple[Iterate, Partition],
               **kw) -> SolveOutcome:
    """Run the dual method to optimality, primal infeasibility, or the
    iteration limit; ``run_active_set`` takes the keywords."""
    return run_active_set(DUAL, p, s, start, dual_base,
                          dual_intermediate, **kw)
