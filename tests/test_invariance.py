"""Metamorphic checks at sizes the oracle cannot reach: the same problem,
written differently but exactly, gets the same answer.

Permuting the variables and the rows of a general-format problem moves
no value, and scaling by powers of two is exact in binary floating
point: H and c by 2^k (the objective scales by 2^k), each row of Ahat
with its bounds by 2^e, and each column by D = diag(2^e), with H -> DHD,
Ahat -> Ahat D, c -> Dc and the variable bounds divided by D (x = D x~).
The status must stay, and the objective, divided back, agree to 1e-6
relative.  The scaling relations hold here at the ranges below; wider
ranges still fail (ROADMAP item 8).
"""

from functools import cache

import numpy as np
import pytest

from pdqp import GeneralQp, SolveConfig, solve_pdqp

from conftest import criterion7_instance

RANKS = (None, 0, 4, 12, 20)
SEEDS = (100, 101, 102, 103)
# The cases in order; a scaling draws its exponents from the position.
CASES = tuple((rank, seed) for rank in RANKS for seed in SEEDS)
CONFIG = SolveConfig(max_iterations=500)


def permuted(g, rng):
    """``g`` with its variables and its rows in a random order."""
    n, m = g.n, g.Ahat.shape[0]
    cols, rows = rng.permutation(n), rng.permutation(m)
    order = np.concatenate([cols, n + rows])
    return GeneralQp(Hhat=g.Hhat[np.ix_(cols, cols)],
                     Ahat=g.Ahat[np.ix_(rows, cols)], c=g.c[cols],
                     lower=g.lower[order], upper=g.upper[order],
                     name=g.name)


def objective_scaled(g, k):
    """``g`` with H and c times 2^k, and the factor 2^k of its objective."""
    return GeneralQp(Hhat=np.ldexp(g.Hhat, k), Ahat=g.Ahat,
                     c=np.ldexp(g.c, k), lower=g.lower, upper=g.upper,
                     name=g.name), 2.0 ** k


def rows_scaled(g, e):
    """``g`` with row i of Ahat and its bounds times 2^e_i."""
    n = g.n
    lower, upper = g.lower.copy(), g.upper.copy()
    lower[n:] = np.ldexp(lower[n:], e)
    upper[n:] = np.ldexp(upper[n:], e)
    return GeneralQp(Hhat=g.Hhat, Ahat=np.ldexp(g.Ahat, e[:, None]), c=g.c,
                     lower=lower, upper=upper, name=g.name), 1.0


def columns_scaled(g, e):
    """``g`` in x = D x~ with D = diag(2^e): H -> DHD, Ahat -> Ahat D,
    c -> Dc and the variable bounds divided by D."""
    n = g.n
    lower, upper = g.lower.copy(), g.upper.copy()
    lower[:n] = np.ldexp(lower[:n], -e)
    upper[:n] = np.ldexp(upper[:n], -e)
    return GeneralQp(Hhat=np.ldexp(g.Hhat, e[:, None] + e),
                     Ahat=np.ldexp(g.Ahat, e), c=np.ldexp(g.c, e),
                     lower=lower, upper=upper, name=g.name), 1.0


def exponents(seed, size, span):
    return np.random.default_rng(seed).integers(-span, span + 1, size)


# name -> (g, case position) -> (transformed g, objective factor)
SCALINGS = {
    "H,c-x2^4": lambda g, i: objective_scaled(g, 4),
    "H,c-x2^-8": lambda g, i: objective_scaled(g, -8),
    "rows-x2^[-4,4]": lambda g, i: rows_scaled(
        g, exponents(i, g.Ahat.shape[0], 4)),
    "columns-x2^[-4,4]": lambda g, i: columns_scaled(
        g, exponents(1000 + i, g.n, 4)),
}


@cache
def drawn(rank, seed):
    """The case as drawn and its solution."""
    g = criterion7_instance(150, 15, 15, seed, rank)[0]
    return g, solve_pdqp(g, CONFIG)


def same_answer(sol, want, factor=1.0):
    return sol.status == want.status and abs(
        sol.objective / factor - want.objective) <= 1e-6 * (
            1.0 + abs(want.objective))


@pytest.mark.parametrize("rank", RANKS)
def test_permuting_variables_and_rows_keeps_the_answer(rank):
    for seed in SEEDS:
        g, want = drawn(rank, seed)
        moved = solve_pdqp(permuted(g, np.random.default_rng(seed)), CONFIG)
        assert same_answer(moved, want), seed


@pytest.mark.parametrize("scaling", SCALINGS)
def test_exact_power_of_two_scaling_keeps_the_answer(scaling):
    for i, (rank, seed) in enumerate(CASES):
        g, want = drawn(rank, seed)
        scaled, factor = SCALINGS[scaling](g, i)
        assert same_answer(solve_pdqp(scaled, CONFIG), want, factor), (
            rank, seed)
