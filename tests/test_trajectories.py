"""Trajectory gates: status, iteration and subiteration counts of seeded
criterion-7 instances must match the pin files in tests/data/trajectories/
exactly.

* lowrank.csv: 20 instances with H = G'G/n (n=60).  Their dual stages
  are degenerate, full of ratio-test ties; a tie rule that roundoff
  could sway would move these counts long before it moved any status.
* pd300.csv: one instance with a tridiagonal positive definite H (n=300,
  K_B of dim 237 and more), solved at the defaults and from a smaller
  given basis under primal-first.  Its K_B solves take the
  Schur-complement update path, which must not move the trajectory.
* suite.csv: the first 100 standard-form problems of the acceptance
  suite under every strategy.  A primal-only or dual-only run whose
  initial basis fails that strategy's precondition is recorded as status
  ``error``.

``test_trajectories_do_not_depend_on_refinement`` reruns all three with
an extra refinement step in every fresh KKT solve and a refinement step
in every updated one, and requires the same counts.

Regenerate the files only for a change that is meant to alter
trajectories, and say so; the command prints every row it changes:

    python tests/test_trajectories.py
"""

import csv
import math
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from pdqp import (ProblemError, SolveConfig, driver, kkt, solve_pdqp,
                  solve_standard)

from conftest import criterion7_instance, random_instances

DATA = Path(__file__).resolve().parent / "data" / "trajectories"
LOWRANK = DATA / "lowrank.csv"
PD = DATA / "pd300.csv"
SUITE = DATA / "suite.csv"
N, M, ACTIVE = 60, 6, 6
RANKS = (0, 2, 4, 6, 8)
SEEDS = 4
MAX_ITERATIONS = 500
FIELDS = ("name", "status", "iterations", "subiterations")

PD_CASE = (300, 20, 40, 3)      # n, m, active bounds, seed
# The given basis holds the first 240 columns.  Its primal stage first
# drops to 217 basic columns, then grows to 275 by basis additions, so K_B
# stays above kkt.UPDATE_MIN_DIM (a half-sized basis would start below it).
PD_RUNS = (("defaults", SolveConfig()),
           ("basis240-primal-first",
            SolveConfig(strategy="primal-first",
                        initial_basis=list(range(240)))))

SUITE_SEED, SUITE_COUNT = 20260810, 100
STRATEGIES = ("auto", "primal-first", "dual-first", "primal-only",
              "dual-only")


def _row(name, g, fstar, sol):
    if sol.status == "optimal":
        assert abs(sol.objective - fstar) <= 1e-7 * (1.0 + abs(fstar)), name
        assert float(np.min(sol.x)) >= -1e-6, name
    return {"name": name, "status": sol.status,
            "iterations": str(sum(lg.iterations for lg in sol.stage_log)),
            "subiterations": str(sum(lg.subiterations
                                     for lg in sol.stage_log))}


def _lowrank_rows():
    rows = []
    for rank in RANKS:
        for k in range(SEEDS):
            g, _, fstar = criterion7_instance(N, M, ACTIVE, 1000 * rank + k,
                                              rank)
            sol = solve_pdqp(g, SolveConfig(max_iterations=MAX_ITERATIONS))
            rows.append(_row(g.name, g, fstar, sol))
    return rows


def _pd_rows():
    g, _, fstar = criterion7_instance(*PD_CASE)
    return [_row(f"{g.name}/{label}", g, fstar, solve_pdqp(g, config))
            for label, config in PD_RUNS]


def _suite_rows():
    rows = []
    for i, p in enumerate(random_instances(SUITE_SEED, SUITE_COUNT)):
        for strategy in STRATEGIES:
            row = {"name": f"{i:03d}/{strategy}", "status": "error",
                   "iterations": "0", "subiterations": "0"}
            try:
                sol = solve_standard(p, SolveConfig(strategy=strategy))
            except ProblemError:
                assert strategy in ("primal-only", "dual-only"), row["name"]
            else:
                row.update(status=sol.status,
                           iterations=str(sol.iterations),
                           subiterations=str(sol.subiterations))
            rows.append(row)
    return rows


def _assert_matches(path, got):
    with path.open(newline="") as fh:
        expected = list(csv.DictReader(fh))
    assert [r["name"] for r in got] == [r["name"] for r in expected]
    mismatched = [(e["name"], tuple(e[f] for f in FIELDS[1:]),
                   tuple(r[f] for f in FIELDS[1:]))
                  for e, r in zip(expected, got) if e != r]
    assert mismatched == []


def test_lowrank_trajectories_unchanged():
    _assert_matches(LOWRANK, _lowrank_rows())


def test_pd_trajectories_unchanged():
    _assert_matches(PD, _pd_rows())


def test_suite_trajectories_unchanged():
    _assert_matches(SUITE, _suite_rows())


def _solve_refined_twice(self, rhs):
    x = self._once(rhs)
    for _ in range(2):
        x += self._once(rhs - self.matrix @ x)
    return x


def test_trajectories_do_not_depend_on_refinement(monkeypatch):
    # A second refinement step of every fresh solve, and a refinement step
    # of every updated one (which refines only past its backward-error
    # bound), change the solves only at roundoff level.  Degenerate ties
    # must not be broken by that roundoff, so every pinned trajectory
    # stays the same.
    monkeypatch.setattr(kkt.KktFactorization, "solve",
                        _solve_refined_twice)
    monkeypatch.setattr(kkt, "_backward_error", lambda *args: np.inf)
    _assert_matches(LOWRANK, _lowrank_rows())
    _assert_matches(SUITE, _suite_rows())
    _assert_matches(PD, _pd_rows())


def test_pd_stages_refactor_once_per_border_cap(monkeypatch):
    # Fresh factorizations are ``factor_kb`` calls, the one function that
    # builds and factors a basis matrix; each records its dim.  Each
    # subiteration moves at most one blocking index and each iteration
    # binds one freed index, so iterations + subiterations bounds a
    # stage's basis changes.
    tries = []
    factor_kb = kkt.factor_kb
    monkeypatch.setattr(kkt, "factor_kb", lambda p, order: tries.append(
        len(order) + p.m) or factor_kb(p, order))
    stages = []

    def counted(solve):
        def run(*args, **kwargs):
            before = len(tries)
            out = solve(*args, **kwargs)
            stages.append((out, tries[before:]))
            return out
        return run

    monkeypatch.setattr(driver, "solve_primal", counted(driver.solve_primal))
    monkeypatch.setattr(driver, "solve_dual", counted(driver.solve_dual))
    g, _, fstar = criterion7_instance(*PD_CASE)
    for label, config in PD_RUNS:
        stages.clear()
        sol = solve_pdqp(g, config)
        assert sol.status == "optimal", label
        assert abs(sol.objective - fstar) <= 1e-7 * (1.0 + abs(fstar)), label
        assert len(stages) == 2, label
        for out, dims in stages:
            assert min(dims, default=kkt.UPDATE_MIN_DIM) >= \
                kkt.UPDATE_MIN_DIM, (label, out.method)
            changes = out.iterations + out.subiterations
            assert len(dims) <= 1 + math.ceil(changes / kkt.BORDER_CAP), \
                (label, out.method, len(dims), changes)


def _summary(row):
    return f"{row['status']} {row['iterations']}/{row['subiterations']}"


def _write(path, rows):
    """Write a pin file and print each row that changed, or was added,
    against the file it replaces."""
    old = {}
    if path.exists():
        with path.open(newline="") as fh:
            old = {r["name"]: r for r in csv.DictReader(fh)}
    changed = [r for r in rows if old.get(r["name"]) != r]
    print(f"{path.name}: {len(changed)} of {len(rows)} rows changed")
    for r in changed:
        before = _summary(old[r["name"]]) if r["name"] in old else "(new)"
        print(f"  {r['name']}: {before} \u2192 {_summary(r)}")
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    _write(LOWRANK, _lowrank_rows())
    _write(PD, _pd_rows())
    _write(SUITE, _suite_rows())
