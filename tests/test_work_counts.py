"""Work-count gate: the exact work of one pass over each benchmark
workload's instances must match tests/data/work_counts.csv.

Per set the file holds the ``kkt.factor_kb`` calls (every basis matrix
is factored there), the engine's iterations and subiterations, and the
zero-length steps among the subiterations.  Counts repeat exactly on
every host, where timings scatter, so a change that claims to save work
shows it here and a change that claims to save only time keeps them.
The sets are:

* ``suite``: the ``suite500`` draw, ``random_instances(20260810, 500)``,
  solved by ``solve_standard`` at the defaults;
* ``lowrank``: the 12 constructions of the ``lowrank`` workload at its
  ``max_iterations``;
* ``ladder``: the 5 rungs of the ``ladder`` workload;
* ``mixed``: ``mixed_instances(1, 120)``, standardized and solved by
  ``solve_pdqp`` under auto, primal-first and dual-first, as the
  ``mixed-bounds`` workload solves them through ``cli.run``.

The counts come from ``monkeypatch`` wrappers: ``factor_kb`` in ``kkt``,
``run_active_set`` as ``primal`` and ``dual`` call it (its outcomes'
iterations and subiterations) and ``take_step`` as the step functions
call it (its steps, and those of length zero).

The sets are built and solved on one thread of every loaded OpenBLAS
(``pdqp.one_blas_thread``), as the benchmark runs them.  A threaded BLAS
sums in another order, so the low-rank H of ``lowrank`` differs in its
last bits, and the last bit decides whether a step is exactly zero: with
two threads ``lowrank`` has one zero-length step fewer.

Regenerate the file only for a change that is meant to alter the work
done, and say so; the command prints every row it changes:

    python tests/test_work_counts.py
"""

import csv
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from pdqp import (SolveConfig, dual, kkt, one_blas_thread, primal, solve_pdqp,
                  solve_standard)

from conftest import mixed_instances, random_instances
from workloads import STRATEGIES, Ladder, LowRank, constructed_qp

PIN = Path(__file__).resolve().parent / "data" / "work_counts.csv"
FIELDS = ("set", "factorizations", "iterations", "subiterations",
          "zero_steps")


def _sets(suite):
    """(name, solves) per set, each solve a call without arguments."""
    lowrank, ladder = LowRank(Path(".")), Ladder(Path("."))
    mixed = mixed_instances(1, 120)
    return (
        ("suite", [lambda p=p: solve_standard(p) for p in suite]),
        ("lowrank", [lambda g=constructed_qp(*spec)[0]:
                     solve_pdqp(g, lowrank.config())
                     for spec in lowrank.specs(None)]),
        ("ladder", [lambda g=constructed_qp(*spec)[0]: solve_pdqp(g)
                    for spec in ladder.specs(None)]),
        ("mixed", [lambda g=g, s=s: solve_pdqp(g, SolveConfig(strategy=s))
                   for g in mixed for s in STRATEGIES]),
    )


def _rows(suite, setattr):
    """One row per set, counted through wrappers that ``setattr(owner,
    name, value)`` installs."""
    count = dict.fromkeys(FIELDS[1:], 0)
    factor_kb = kkt.factor_kb

    def factored(p, order):
        count["factorizations"] += 1
        return factor_kb(p, order)

    def stage(run):
        def counted(*args, **kwargs):
            out = run(*args, **kwargs)
            count["iterations"] += out.iterations
            count["subiterations"] += out.subiterations
            return out
        return counted

    def step(take):
        def counted(*args):
            out = take(*args)
            count["steps"] += 1
            count["zero_steps"] += out[0].alpha == 0.0
            return out
        return counted

    setattr(kkt, "factor_kb", factored)
    for module in (primal, dual):
        setattr(module, "run_active_set", stage(module.run_active_set))
        setattr(module, "take_step", step(module.take_step))
    rows = []
    with one_blas_thread() as pinned:
        assert pinned, "no OpenBLAS found in the process"
        for name, solves in _sets(suite):
            count.update(dict.fromkeys(count, 0), steps=0)
            for solve in solves:
                solve()
            # Every subiteration is one step.
            assert count.pop("steps") == count["subiterations"], name
            rows.append({"set": name,
                         **{f: str(count[f]) for f in FIELDS[1:]}})
    return rows


def test_work_counts_unchanged(suite500, monkeypatch):
    with PIN.open(newline="") as fh:
        expected = list(csv.DictReader(fh))
    assert _rows(suite500, monkeypatch.setattr) == expected


if __name__ == "__main__":
    got = _rows(random_instances(20260810, 500),
                pytest.MonkeyPatch().setattr)
    old = {}
    if PIN.exists():
        with PIN.open(newline="") as fh:
            old = {r["set"]: r for r in csv.DictReader(fh)}
    for r in got:
        if old.get(r["set"]) != r:
            print(f"{r['set']}: {old.get(r['set'])} -> {r}")
    with PIN.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(got)
