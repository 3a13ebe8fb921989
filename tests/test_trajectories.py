"""Trajectory gate on low-rank problems: status, iteration and subiteration
counts of 20 seeded criterion-7 instances with H = G'G/n must match
tests/data/trajectories/lowrank.csv exactly.

The degenerate dual stages of these problems break ratio-test ties by the
sign of roundoff, so a change to the numerics of the KKT solves moves these
counts long before it moves any status.  Regenerate the file only for a
change that is meant to alter trajectories, and say so:

    PYTHONPATH=src python tests/test_trajectories.py
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from pdqp import SolveConfig, solve_pdqp

from conftest import lowrank_instance

EXPECTED = Path(__file__).resolve().parent / "data" / "trajectories" / "lowrank.csv"
N, M, ACTIVE = 60, 6, 6
RANKS = (0, 2, 4, 6, 8)
SEEDS = 4
MAX_ITERATIONS = 500
FIELDS = ("name", "status", "iterations", "subiterations")


def _cases():
    return [lowrank_instance(N, M, ACTIVE, 1000 * rank + k, rank)
            for rank in RANKS for k in range(SEEDS)]


def _rows():
    rows = []
    for g, xstar, fstar in _cases():
        sol = solve_pdqp(g, SolveConfig(max_iterations=MAX_ITERATIONS))
        if sol.status == "optimal":
            assert abs(sol.objective - fstar) <= 1e-7 * (1.0 + abs(fstar)), g.name
            assert float(np.min(sol.x)) >= -1e-6, g.name
        rows.append({"name": g.name, "status": sol.status,
                     "iterations": str(sum(lg.iterations for lg in sol.stage_log)),
                     "subiterations": str(sum(lg.subiterations
                                              for lg in sol.stage_log))})
    return rows


def test_lowrank_trajectories_unchanged():
    with EXPECTED.open(newline="") as fh:
        expected = list(csv.DictReader(fh))
    got = _rows()
    assert [r["name"] for r in got] == [r["name"] for r in expected]
    mismatched = [(e["name"], tuple(e[f] for f in FIELDS[1:]),
                   tuple(r[f] for f in FIELDS[1:]))
                  for e, r in zip(expected, got) if e != r]
    assert mismatched == []


if __name__ == "__main__":
    EXPECTED.parent.mkdir(parents=True, exist_ok=True)
    with EXPECTED.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_rows())
