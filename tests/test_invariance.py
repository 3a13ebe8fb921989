"""Metamorphic checks at sizes the oracle cannot reach: the same problem,
written differently but exactly, gets the same answer.

Permuting the variables and the rows of a general-format problem moves
no value, so its status must stay and its objective agree to 1e-6
relative.
"""

import numpy as np
import pytest

from pdqp import GeneralQp, SolveConfig, solve_pdqp

from conftest import criterion7_instance

RANKS = (None, 0, 4, 12, 20)
SEEDS = (100, 101, 102, 103)
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


@pytest.mark.parametrize("rank", RANKS)
def test_permuting_variables_and_rows_keeps_the_answer(rank):
    for seed in SEEDS:
        g = criterion7_instance(150, 15, 15, seed, rank)[0]
        drawn = solve_pdqp(g, CONFIG)
        moved = solve_pdqp(permuted(g, np.random.default_rng(seed)), CONFIG)
        assert moved.status == drawn.status, seed
        assert abs(moved.objective - drawn.objective) <= 1e-6 * (
            1.0 + abs(drawn.objective)), seed
