"""The paper's own test shape: CVXQP-family QPs (``conftest.cvxqp``)
against HiGHS's QP solver (``test_referee.highs_qp``).

Every solve under auto, primal-first and dual-first at n = 20 and 50 must
return HiGHS's objective to 1e-8 relative, except the recorded
known-failure set, whose solves must raise: CVXQP3 at n = 50 under all
three strategies, where a direction solve rejects its basis matrix as
singular while HiGHS finds the optimum.  A fix of that rejection shows
as a failure here, and the set shrinks with it.
"""

from functools import cache

import pytest

from pdqp import KktInternalError, SolveConfig, solve_pdqp

from conftest import cvxqp
from test_referee import STRATEGIES, highs_qp

# (n, variant) whose solves raise under every strategy.
KNOWN_RAISES = {(50, 3)}


@cache
def refereed(n, variant):
    """The CVXQP problem with HiGHS's objective, which must be optimal."""
    g = cvxqp(n, variant)
    optimal, objective = highs_qp(g)
    assert optimal, g.name
    return g, objective


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("n, variant", [(n, v) for n in (20, 50)
                                        for v in (1, 2, 3)])
def test_cvxqp_objective_matches_highs(n, variant, strategy):
    g, want = refereed(n, variant)
    config = SolveConfig(strategy=strategy)
    if (n, variant) in KNOWN_RAISES:
        with pytest.raises(KktInternalError, match="unexpectedly singular"):
            solve_pdqp(g, config)
        return
    sol = solve_pdqp(g, config)
    assert sol.status == "optimal"
    assert abs(sol.objective - want) <= 1e-8 * abs(want)
