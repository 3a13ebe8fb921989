"""The ``suite500`` draw, ``random_instances(20260810, 500)``: the work it
does to make its instances, and the premise of the shapes it skips.

The instances themselves are pinned elsewhere: ``test_trajectories.py``
and ``test_work_counts.py`` fail if any of them moves.  Their digest is
not pinned here, because the draw's BLAS products make it depend on the
host.
"""

import numpy as np
import pytest

from pdqp import ProblemError, QpProblem


def test_suite500_draw_builds_only_problems_that_can_load(suite500_draw):
    # 1455 constructions, all of which load: 500 instances and 955 that
    # fail their cone test.  The 1200 constructions of draws whose shape
    # fails the rank rule (20 draws, 60 tries each) are skipped.
    assert suite500_draw[2] == 1455


@pytest.mark.parametrize("kind, n, m", [("feasible", 2, 3),
                                        ("unbounded", 2, 2),
                                        ("unbounded", 2, 3),
                                        ("unbounded", 3, 3)])
def test_a_skipped_shape_fails_the_rank_rule(kind, n, m):
    # With M = 0, m > n rows, or m >= n rows projected orthogonal to an
    # unbounded draw's ray, as ``random_instance`` projects them.
    rng = np.random.default_rng(n * 10 + m)
    for _ in range(20):
        A = rng.normal(size=(m, n))
        if kind == "unbounded":
            ray = np.abs(rng.normal(size=n)) + 0.1
            A = A - np.outer(A @ ray, ray) / (ray @ ray)
        with pytest.raises(ProblemError, match=r"\[A M\] is rank deficient"):
            QpProblem(H=np.zeros((n, n)), M=np.zeros((m, m)), A=A,
                      b=rng.normal(size=m), c=rng.normal(size=n))
