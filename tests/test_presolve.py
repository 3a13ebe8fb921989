"""The presolve of ``standardize`` on planted dependent equality rows.

Each draw is a small integer general-format problem whose rows are
equalities, and the same problem with one more equality row planted at a
random position: an integer combination of the other rows plus a
multiple of a fixed variable where there is one, so that it depends on
them over the live columns only, as in ``mixed098``.  Its bound is the
same combination of theirs (consistent) or that plus one (inconsistent),
and the row and its bound are then scaled by 1 or 2^+-20.
"""

import numpy as np
import pytest

from pdqp import (GeneralQp, KktInternalError, Shifts, SolveConfig,
                  enumerate_solve, solve_pdqp, standardize)
from pdqp.oracle import ENUMERATION_LIMIT

KINDS = ("lower", "upper", "box", "fixed", "free")
SEEDS = range(30)
SCALES = (1.0, 2.0 ** 20, 2.0 ** -20)
STRATEGIES = ("auto", "primal-first", "dual-first")


def planted_pair(seed: int, scale: float = 1.0, consistent: bool = True
                 ) -> tuple[GeneralQp, GeneralQp]:
    """(the problem of draw ``seed``, the same with its row planted)."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(3, 6)), int(rng.integers(2, 4))
    g = rng.integers(-2, 3, size=(int(rng.integers(0, n)), n)).astype(float)
    a = rng.integers(-3, 4, size=(m, n)).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    x0 = rng.integers(-3, 4, size=n).astype(float)
    kinds = rng.choice(KINDS, size=n)
    lo = np.where(np.isin(kinds, ("lower", "box", "fixed")),
                  x0 - rng.integers(0, 3, size=n), -np.inf)
    up = np.where(np.isin(kinds, ("upper", "box")),
                  x0 + rng.integers(1, 4, size=n), np.inf)
    fixed = (kinds == "fixed").nonzero()[0]
    lo[fixed] = up[fixed] = x0[fixed]
    combo = rng.integers(-2, 3, size=m)
    combo[int(rng.integers(m))] = rng.choice([-1, 1])
    row = combo @ a
    if fixed.size:
        row[fixed[0]] += rng.integers(1, 3)
    at = int(rng.integers(m + 1))
    rows = np.insert(a, at, row, axis=0)
    b = rows @ x0
    b[at] += 0.0 if consistent else 1.0
    rows[at] *= scale
    b[at] *= scale
    others = np.arange(m + 1) != at

    def problem(keep):
        return GeneralQp(Hhat=g.T @ g, Ahat=rows[keep], c=c,
                         lower=np.concatenate([lo, b[keep]]),
                         upper=np.concatenate([up, b[keep]]),
                         name=f"planted{seed}")

    return problem(others), problem(np.ones(m + 1, dtype=bool))


def _agree(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * (1.0 + abs(want))


@pytest.mark.parametrize("consistent", [True, False])
def test_planted_row_verdict_does_not_depend_on_its_scale(consistent):
    # A power-of-two scale is undone exactly by the rank rule's own row
    # scaling, so the kept rows are the same bits at every scale; the
    # planted row adds one dropped row, or makes the problem infeasible.
    for seed in SEEDS:
        base = standardize(planted_pair(seed)[0])
        verdicts = []
        for scale in SCALES:
            std = standardize(planted_pair(seed, scale, consistent)[1])
            verdicts.append((std.kept_rows, std.dead_rows,
                             std.inconsistent_row))
            if consistent:
                assert std.inconsistent_row is None
                assert len(std.dead_rows) == len(base.dead_rows) + 1
            else:
                assert std.problem is None
                assert std.inconsistent_row in std.dead_rows
        assert verdicts[1:] == verdicts[:-1]


def test_consistent_planted_row_changes_no_outcome():
    # The planted problem has the base problem's status and objective
    # under three strategies, and the oracle's on its presolved form.
    for seed in SEEDS:
        base, planted = planted_pair(seed)
        for strategy in STRATEGIES:
            config = SolveConfig(strategy=strategy, check_invariants=True)
            want = solve_pdqp(base, config)
            got = solve_pdqp(planted, config)
            assert got.status == want.status
            if want.status == "optimal":
                assert _agree(got.objective, want.objective)
        std = standardize(planted)
        if std.problem.n <= ENUMERATION_LIMIT:
            o = enumerate_solve(std.problem, Shifts.zero(std.problem.n))
            assert o.status == got.status
            if o.status == "optimal":
                assert _agree(got.objective,
                              o.objective + std.objective_offset)


def test_scaled_planted_row_changes_no_outcome_but_where_it_is_kept_small():
    # At 2^+-20 the planted problem solves as the base problem does, except
    # in draws 12 and 16 at 2^-20: there the rank rule keeps the small
    # row in place of a unit one, and basis discovery finds K_B singular,
    # as it does for any equality row at that scale (ROADMAP item 3).
    # The failing set is exactly this one.
    raised = set()
    for seed in SEEDS:
        want = solve_pdqp(planted_pair(seed)[0])
        for scale in SCALES[1:]:
            try:
                got = solve_pdqp(planted_pair(seed, scale)[1])
            except KktInternalError as e:
                assert str(e).startswith("K_B unexpectedly singular")
                raised.add((seed, scale))
                continue
            assert got.status == want.status
            if want.status == "optimal":
                assert _agree(got.objective, want.objective)
    assert raised == {(12, 2.0 ** -20), (16, 2.0 ** -20)}


def test_dropped_row_slack_scales_with_the_kept_rows_bounds():
    # Over free variables the third row, r1 - r2, has bound 0 while r1
    # and r2 have bounds of 7.5e9; the least-squares coefficients miss
    # (1, -1) by rounding, which leaves a residual of 8e-6.  The slack's
    # |coef|.|b_kept| term, 15 here, accepts it: the row is dropped and
    # the problem solves as it does without the row.
    r = np.array([[2.0, -4.0, -5.0], [3.0, 1.0, 2.0], [1.0, 5.0, 7.0]])
    b = r @ (2.0 ** 30 * np.array([2.0, 1.0, 0.0]))
    free = np.full(3, np.inf)

    def problem(rows):
        return GeneralQp(Hhat=np.eye(3), Ahat=r[rows], c=np.zeros(3),
                         lower=np.concatenate([-free, b[rows]]),
                         upper=np.concatenate([free, b[rows]]))

    std = standardize(problem([0, 1, 2]))
    assert std.dead_rows == [0] and std.inconsistent_row is None
    got = solve_pdqp(problem([0, 1, 2]))
    want = solve_pdqp(problem([1, 2]))
    assert got.status == want.status == "optimal"
    assert _agree(got.objective, want.objective)


@pytest.mark.parametrize("scale", SCALES)
def test_inconsistent_planted_row_is_primal_infeasible(scale):
    for seed in SEEDS:
        sol = solve_pdqp(planted_pair(seed, scale, consistent=False)[1])
        assert (sol.status, sol.strategy) == ("primal_infeasible",
                                              "presolve")
