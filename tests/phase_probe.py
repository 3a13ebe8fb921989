"""Where a benchmark workload's solve spends its time, phase by phase.

    PYTHONPATH=src python tests/phase_probe.py --workload suite500
    PYTHONPATH=src python tests/phase_probe.py --workload mixed-bounds -k 7

Builds the workload's instances with ``bench/workloads.py`` and times its
solve calls as the benchmark makes them, with ``perf_counter`` wrappers
around the driver- and engine-level functions listed in ``PHASES``.  Each
wrapper keeps its own time apart from that of the wrapped calls inside
it, so the rows add up to the wrapped solve.  A row is a phase's self
time in microseconds per solve and its calls per solve, each the median
of ``-k`` passes after one warm-up pass; ``solve (wrapped)`` is the
median time of a whole solve with the wrappers in place and ``outside
the phases`` what no wrapper covers.  The passes run on one BLAS thread
(``pdqp.one_blas_thread``).

A function is wrapped in every ``pdqp`` module that binds it, so a call
through an imported name is seen too, and every name is put back when
the probe ends.  The wrappers cost about a microsecond per call.

Not collected by pytest (the file name has no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "bench")]

import pdqp  # noqa: E402
import workloads  # noqa: E402

MODULES = ("model", "kkt", "steps", "primal", "dual", "driver", "cli")
# (row label, module that defines it, attribute); "QpProblem.__post_init__"
# is a method, the rest are module-level functions.
PHASES = (
    ("take_step", "steps", "take_step"),
    ("QpProblem.__post_init__", "model", "QpProblem.__post_init__"),
    ("find_soc_basis", "kkt", "find_soc_basis"),
    ("init_shifts", "driver", "init_shifts"),
    ("rest of solve_standard", "driver", "solve_standard"),
    ("check_optimality", "model", "check_optimality"),
    ("run_active_set (own)", "steps", "run_active_set"),
    ("_check_bounds", "steps", "_check_bounds"),
    ("_stage_log", "driver", "_stage_log"),
    ("select_index", "steps", "select_index"),
    ("standardize (own)", "driver", "standardize"),
    ("rest of solve_pdqp", "driver", "solve_pdqp"),
    ("parse_problem", "cli", "parse_problem"),
    ("rest of cli.run", "cli", "run"),
)


class Phases:
    """Self time and calls per phase, over the solves since ``reset``."""

    def __init__(self):
        self.calls = {label: 0 for label, _, _ in PHASES}
        self.own = {label: 0.0 for label, _, _ in PHASES}
        self._inner = [0.0]         # wrapped time inside each open call

    def reset(self):
        for label in self.calls:
            self.calls[label] = 0
            self.own[label] = 0.0

    def wrap(self, label, fn):
        calls, own, inner = self.calls, self.own, self._inner

        def timed(*args, **kwargs):
            inner.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - t0
                calls[label] += 1
                own[label] += spent - inner.pop()
                inner[-1] += spent
        return timed

    def install(self):
        """Wrap every phase; returns the (owner, name, original) triples
        to put back."""
        mods = [pdqp] + [importlib.import_module(f"pdqp.{m}")
                         for m in MODULES]
        patched = []
        for label, module, attr in PHASES:
            if attr == "QpProblem.__post_init__":
                original = pdqp.QpProblem.__dict__["__post_init__"]
                pdqp.QpProblem.__post_init__ = self.wrap(label, original)
                patched.append((pdqp.QpProblem, "__post_init__", original))
                continue
            original = getattr(importlib.import_module(f"pdqp.{module}"),
                               attr)
            wrapper = self.wrap(label, original)
            for mod in mods:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
        return patched


def run(name: str, k: int) -> list[tuple[str, float, float]]:
    """The table of workload ``name``: (label, us per solve, calls per
    solve) rows, medians of k passes."""
    with tempfile.TemporaryDirectory(prefix="pdqp-phases-") as tmp:
        workload = workloads.WORKLOADS[name](Path(tmp))
        cases, _ = workload.build()
        phases = Phases()
        patched = phases.install()
        per_pass = []
        try:
            with pdqp.one_blas_thread():
                for i in range(k + 1):
                    phases.reset()
                    t0 = perf_counter()
                    for case in cases:
                        workload.solve(case)
                    wall = perf_counter() - t0
                    if i:               # the first pass warms up
                        per_pass.append((wall, dict(phases.own),
                                         dict(phases.calls)))
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
    count = len(cases)
    rows = []
    for label, _, _ in PHASES:
        calls = statistics.median(c[label] for _, _, c in per_pass) / count
        if calls:
            rows.append((label, statistics.median(
                o[label] for _, o, _ in per_pass) / count * 1e6, calls))
    wall = statistics.median(w for w, _, _ in per_pass) / count * 1e6
    covered = statistics.median(sum(o.values()) for _, o, _ in per_pass)
    rows.append(("outside the phases",
                 wall - covered / count * 1e6, float("nan")))
    rows.append(("solve (wrapped)", wall, 1.0))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="suite500",
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("-k", type=int, default=7,
                    help="timed passes after the warm-up (default 7)")
    args = ap.parse_args(argv)
    print(f"{args.workload}: median of {args.k} passes, one BLAS thread")
    print("| phase | us per solve | calls per solve |")
    print("|---|---|---|")
    for label, us, calls in run(args.workload, args.k):
        shown = "" if calls != calls else f"{calls:.2f}"
        print(f"| {label} | {us:.1f} | {shown} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
